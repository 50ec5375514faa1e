// Command bench is the repository's benchmark: one command per workload
// that prints every metric by name and unit, checks the program's outputs
// against pinned expectations, and ends with one JSON line for the
// acceptance driver. See README.md in this directory for the method and
// BENCHMARK.json at the repository root for the contract.
//
// Usage:
//
//	go run ./bench --workload nic16|host16|clos256|svc --seed N --seconds S --trace 0|1
//	go run ./bench --workload W --aa N     # N runs, per-metric spread
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"gmsim/internal/runner"
)

// processStart is as close to process start as Go code gets: setup_s is
// measured from here.
var processStart = time.Now()

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// verdict is the last line of a run's standard output, the one the
// acceptance driver parses.
type verdict struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]verdictValue `json:"metrics"`
}

type verdictValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fail reports a harness error and returns the exit code for it.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "bench:", err)
	return 1
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: nic16, host16, clos256 or svc")
	seed := fs.Int64("seed", 1, "seed for op order and generated service specs")
	seconds := fs.Float64("seconds", 20, "length of the timed phase on the seed commit; fixes the number of passes")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	aa := fs.Int("aa", 0, "run the workload this many times and print per-metric spread")
	setupOnly := fs.Bool("setup-only", false, "internal: set up, report set-up time, exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (nic16, host16, clos256, svc)\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || *aa < 0 {
		fmt.Fprintln(stderr, "bench: need --seconds > 0, --trace 0 or 1, --aa >= 0")
		return 2
	}
	// The engine is single-threaded by design and measures faster and
	// tighter on one P than on the two shared cores of the sandbox.
	runtime.GOMAXPROCS(1)
	runner.SetDefault(1)

	exp, err := loadExpectations()
	if err != nil {
		return fail(stderr, err)
	}
	switch {
	case *aa > 0:
		return runAA(w, *seed, *seconds, *trace, *aa, stdout, stderr)
	case *setupOnly:
		return runSetupOnly(w, *seed, exp, stdout, stderr)
	case *trace == 1:
		return runTraced(w, *seed, *seconds, exp, stdout, stderr)
	}
	return runEndToEnd(w, *seed, *seconds, exp, w.setupChildren, processStart, stdout, stderr)
}

// runSetupOnly is the child mode: set up, warm, print the calibrated
// set-up time, tear down.
func runSetupOnly(w workload, seed int64, exp expectations, stdout, stderr io.Writer) int {
	res, err := runWorkload(w, seed, 0, exp, processStart, nil)
	if err != nil {
		return fail(stderr, err)
	}
	if res.failed > 0 {
		fmt.Fprintf(stderr, "bench: %d of %d warm ops failed: %s\n", res.failed, res.attempted, strings.Join(res.failures, "; "))
		return 1
	}
	fmt.Fprintf(stdout, "%.9f\n", res.setupCalS)
	return 0
}

// childSetups runs set-up in n fresh processes and returns their
// calibrated set-up times.
func childSetups(w workload, seed int64, n int) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var cal []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed), "--setup-only")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		var c float64
		if _, err := fmt.Sscan(string(out), &c); err != nil {
			return nil, fmt.Errorf("set-up child printed %q: %w", out, err)
		}
		cal = append(cal, c)
	}
	return cal, nil
}

// endToEnd computes the gated metrics of a run.
func endToEnd(res *runResult, setupCal []float64, rssMB float64) []metric {
	ops := math.Max(1, float64(res.timedOps()))
	var allocs, bytes float64
	for _, ss := range res.samples {
		for _, s := range ss {
			allocs += float64(s.allocs)
			bytes += float64(s.bytes)
		}
	}
	return []metric{
		newMetric("op_cal_ms", res.overTypes(func(ss []sample) float64 { return median(field(ss, calMs)) })),
		newMetric("allocs_per_op", allocs/ops),
		newMetric("alloc_kb_per_op", bytes/1024/ops),
		newMetric("setup_s", median(setupCal)),
		newMetric("peak_rss_mb", rssMB),
	}
}

// diagnostics are the raw wall-clock figures and the simulated latency:
// printed by every run, reported by the traced run, never gated — raw
// wall-clock repeats to 10–20 % on a shared sandbox.
func diagnostics(res *runResult) []metric {
	var wallSum float64
	for _, ss := range res.samples {
		for _, s := range ss {
			wallSum += s.wallMs
		}
	}
	return []metric{
		newMetric("driver.op_ms_p50", res.overTypes(func(ss []sample) float64 { return median(field(ss, wallMs)) })),
		newMetric("driver.op_ms_p90", res.overTypes(func(ss []sample) float64 { return percentile(field(ss, wallMs), 90) })),
		newMetric("driver.op_ms_min", res.overTypes(func(ss []sample) float64 { return percentile(field(ss, wallMs), 0) })),
		newMetric("driver.ops_per_s", float64(res.timedOps())/math.Max(wallSum/1e3, 1e-9)),
		newMetric("driver.ref_ms_p50", median(res.refMs)),
		newMetric("driver.ref_iqr_frac", iqrFrac(res.refMs)),
		newMetric("experiments.sim_barrier_us", simBarrierUs(res)),
	}
}

// simBarrierUs is the geometric mean over op types of the simulated mean
// barrier latency. It is a property of the model, not of the host: any
// movement is a model change, never a speed-up.
func simBarrierUs(res *runResult) float64 {
	return res.overTypes(func(ss []sample) float64 { return ss[0].simUs })
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "%-44s %16.6f %s\n", m.name, m.value, m.unit)
	}
}

// printTypes prints the per-type breakdown behind the combined figures.
func printTypes(w io.Writer, res *runResult) {
	fmt.Fprintf(w, "# %-12s %6s %10s %10s %10s %10s %12s %12s\n", "op type", "n", "cal p50", "raw p50", "raw p90", "raw min", "allocs/op", "sim us")
	for _, t := range res.types {
		ss := res.samples[t]
		if len(ss) == 0 {
			fmt.Fprintf(w, "# %-12s %6d\n", t, 0)
			continue
		}
		var allocs float64
		for _, s := range ss {
			allocs += float64(s.allocs)
		}
		raw := field(ss, wallMs)
		note := ""
		if float64(len(ss))*0.1 < 10 {
			note = "  (p90 has fewer than 10 samples beyond it)"
		}
		fmt.Fprintf(w, "# %-12s %6d %10.3f %10.3f %10.3f %10.3f %12.1f %12.4f%s\n", t, len(ss),
			median(field(ss, calMs)), median(raw), percentile(raw, 90), percentile(raw, 0),
			allocs/float64(len(ss)), ss[0].simUs, note)
	}
}

// finish prints the verdict line the acceptance driver parses and returns
// the exit code: non-zero when any op failed its output check.
func finish(w io.Writer, res *runResult, ms []metric) int {
	out := verdict{res.failed == 0, res.attempted, res.failed, make(map[string]verdictValue, len(ms))}
	for _, m := range ms {
		out.Metrics[m.name] = verdictValue{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	if res.failed > 0 {
		return 1
	}
	return 0
}

func printFailures(w io.Writer, res *runResult) {
	fmt.Fprintf(w, "# ops: %d attempted, %d failed\n", res.attempted, res.failed)
	for _, f := range res.failures {
		fmt.Fprintf(w, "# FAILED %s\n", f)
	}
}

func printRunShape(w io.Writer, res *runResult, seed int64) {
	fmt.Fprintf(w, "# workload %s seed %d: %d of %d passes, timed phase %.2f s, set-up %.3f s raw, GOMAXPROCS=1, state under %s\n",
		res.workload, seed, res.passesDone, res.passes, res.timedS, res.setupRawS, stateRoot)
	if res.passesDone < res.passes {
		fmt.Fprintf(w, "# stopped early: the timed phase overran --seconds by more than %.2fx\n", overrunFactor)
	}
}

// runEndToEnd is the untraced run: set-up repeated in fresh processes,
// then this process's own set-up, warm passes and the timed passes.
func runEndToEnd(w workload, seed int64, seconds float64, exp expectations, children int, start time.Time, stdout, stderr io.Writer) int {
	setupCal, err := childSetups(w, seed, children)
	if err != nil {
		return fail(stderr, err)
	}
	if children > 0 {
		// This process's set-up clock must not include the children.
		start = time.Now()
	}
	res, err := runWorkload(w, seed, seconds, exp, start, nil)
	if err != nil {
		return fail(stderr, err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return fail(stderr, err)
	}
	setupCal = append(setupCal, res.setupCalS)
	printRunShape(stdout, res, seed)
	printTypes(stdout, res)
	ms := endToEnd(res, setupCal, rss)
	printMetrics(stdout, ms)
	printMetrics(stdout, diagnostics(res))
	printFailures(stdout, res)
	return finish(stdout, res, ms)
}

// runAA runs the workload n times in fresh processes, seeds seed..seed+n-1,
// and prints min / median / max and the quartile spread of every metric
// of the final JSON line.
func runAA(w workload, seed int64, seconds float64, trace, n int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		return fail(stderr, err)
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed+int64(i)),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "bench: run %d: %v\n", i, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var parsed verdict
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &parsed); err != nil || !parsed.Correct {
			fmt.Fprintf(stderr, "bench: run %d: bad result line %q (%v)\n", i, lines[len(lines)-1], err)
			return 1
		}
		for name, m := range parsed.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(stdout, "# run %d/%d (seed %d) done\n", i+1, n, seed+int64(i))
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "# A/A %s: %d runs of %g s, seeds %d..%d\n", w.name, n, seconds, seed, seed+int64(n)-1)
	fmt.Fprintf(stdout, "# %-44s %14s %14s %14s %9s %9s  %s\n", "metric", "min", "median", "max", "iqr/med", "range/med", "unit")
	for _, name := range names {
		xs := values[name]
		med := median(xs)
		lo, hi := percentile(xs, 0), percentile(xs, 100)
		rng := 0.0
		if med != 0 {
			rng = (hi - lo) / med
		}
		fmt.Fprintf(stdout, "  %-44s %14.5f %14.5f %14.5f %8.2f%% %8.2f%%  %s\n", name, lo, med, hi, 100*iqrFrac(xs), 100*rng, units[name])
	}
	return 0
}

// tracePath is where a traced run writes its Chrome trace.
func tracePath(workload string, seed int64) string {
	return filepath.Join(stateRoot, fmt.Sprintf("trace-%s-%d.json", workload, seed))
}

// traceShare is the part of --seconds a traced run spends on the
// workload's passes; the layer probes take the rest.
const traceShare = 0.4

// runTraced is the traced run: the layer probes, then the workload with
// every second pass recording spans, so traced and untraced ops alternate
// under the same machine conditions and their ratio is the tracing
// overhead. The spans go out as Chrome trace JSON when the run ends.
func runTraced(w workload, seed int64, seconds float64, exp expectations, stdout, stderr io.Writer) int {
	tr := newTracer()
	layers, err := runProbes(tr)
	if err != nil {
		return fail(stderr, err)
	}
	res, err := runWorkload(w, seed, seconds*traceShare, exp, time.Now(), tr)
	if err != nil {
		return fail(stderr, err)
	}
	if err := writeTrace(tr, tracePath(w.name, seed)); err != nil {
		return fail(stderr, err)
	}

	split := func(traced bool) float64 {
		return res.overTypes(func(ss []sample) float64 {
			var xs []float64
			for _, s := range ss {
				if s.traced == traced {
					xs = append(xs, s.calMs)
				}
			}
			return median(xs)
		})
	}
	overhead := 0.0
	if untraced := split(false); untraced > 0 && res.passesDone > 1 {
		overhead = split(true)/untraced - 1
	}
	ms := append(layers, diagnostics(res)...)
	ms = append(ms, newMetric("driver.trace_overhead_frac", overhead))
	if gone := missing(perLayerDefs, ms); len(gone) > 0 {
		fmt.Fprintf(stderr, "bench: traced run did not produce %s\n", strings.Join(gone, ", "))
		return 1
	}

	printRunShape(stdout, res, seed)
	printTypes(stdout, res)
	fmt.Fprintf(stdout, "# %d spans written to %s; self time by span name:\n", len(tr.spans), tracePath(w.name, seed))
	self := selfByName(tr.spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "#   %-52s %12.3f ms\n", name, self[name].Seconds()*1e3)
	}
	printMetrics(stdout, ms)
	printFailures(stdout, res)
	return finish(stdout, res, ms)
}

func writeTrace(tr *tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
