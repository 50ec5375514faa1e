package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"gmsim/internal/service"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestStatsHelpers(t *testing.T) {
	xs := []float64{9, 1, 4, 16, 25}
	if got := median(xs); got != 9 {
		t.Errorf("median odd = %v, want 9", got)
	}
	if got := median([]float64{4, 1, 9, 16}); got != 6.5 {
		t.Errorf("median even = %v, want 6.5", got)
	}
	if got := percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := percentile(xs, 100); got != 25 {
		t.Errorf("p100 = %v, want 25", got)
	}
	if got := percentile([]float64{0, 10, 20, 30, 40}, 90); !near(got, 36) {
		t.Errorf("p90 = %v, want 36", got)
	}
	if got := geomean([]float64{2, 8}); !near(got, 4) {
		t.Errorf("geomean = %v, want 4", got)
	}
	// Equal weight per type: scaling one input by k scales the result by
	// k^(1/n) whichever input it is.
	a, b := geomean([]float64{10, 1000}), geomean([]float64{20, 1000})
	c := geomean([]float64{10, 2000})
	if !near(b/a, c/a) {
		t.Errorf("geomean weights types unequally: %v vs %v", b/a, c/a)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if !near(q1, 1.5) || !near(q3, 12) {
		t.Errorf("quartiles = %v, %v, want 1.5, 12", q1, q3)
	}
	if got := iqrFrac([]float64{1, 2, 4, 8, 16}); !near(got, 10.5/4) {
		t.Errorf("iqrFrac = %v, want %v", got, 10.5/4)
	}
	icpt, slope := fitLine([]float64{105, 405}, []float64{10, 25})
	if !near(slope, 0.05) || !near(icpt, 4.75) {
		t.Errorf("fitLine = %v + %v x, want 4.75 + 0.05 x", icpt, slope)
	}
}

func TestCalibrate(t *testing.T) {
	at := func(cpu, loop float64) reading {
		return reading{cpuMs: cpu * refNominalMs, loopMs: loop * loopNominalMs}
	}
	// A machine running the kernels at nominal speed leaves time alone.
	if got := calibrate(10, at(1, 1), at(1, 1), 0.4); !near(got, 10) {
		t.Errorf("nominal machine: %v, want 10", got)
	}
	// A machine 20 % slow stretches op and reference alike.
	if got := calibrate(12, at(1.2, 9), at(1.2, 9), 0); !near(got, 10) {
		t.Errorf("slow machine, user-space op: %v, want 10", got)
	}
	// Drift during the op: the two adjacent readings are averaged.
	if got := calibrate(11, at(1, 1), at(1.2, 1), 0); !near(got, 10) {
		t.Errorf("drifting machine: %v, want 10", got)
	}
	// An op that is all kernel crossings follows the loopback kernel.
	if got := calibrate(16, at(1.2, 1.6), at(1.2, 1.6), 1); !near(got, 10) {
		t.Errorf("kernel-bound op: %v, want 10", got)
	}
	// A blend is geometric: half of each slowdown's logarithm.
	if got := calibrate(10*math.Sqrt(1.21*1.44), at(1.21, 1.44), at(1.21, 1.44), 0.5); !near(got, 10) {
		t.Errorf("blended op: %v, want 10", got)
	}
	if d := refRun(); d <= 0 {
		t.Errorf("CPU kernel took %v", d)
	}
	l, err := newLoopback()
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	r, err := machine{loop: l}.read(2)
	if err != nil || !(r.cpuMs > 0) || !(r.loopMs > 0) {
		t.Errorf("reading %+v, %v", r, err)
	}
}

func TestSeedFixesInputs(t *testing.T) {
	a, b := passOrders(7, 20, 4), passOrders(7, 20, 4)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different op orders")
	}
	if reflect.DeepEqual(a, passOrders(8, 20, 4)) {
		t.Error("different seeds gave the same op order")
	}
	for _, order := range a {
		seen := make(map[int]bool)
		for _, ti := range order {
			seen[ti] = true
		}
		if len(seen) != 4 {
			t.Fatalf("pass %v does not run every op type once", order)
		}
	}
	ram1, disk1, cold1 := svcSeeds(7)
	ram2, disk2, cold2 := svcSeeds(7)
	if ram1 != ram2 || cold1 != cold2 || !reflect.DeepEqual(disk1, disk2) {
		t.Error("same seed gave different service spec sets")
	}
	if len(disk1) != svcDiskSet {
		t.Errorf("disk set has %d specs, want %d", len(disk1), svcDiskSet)
	}
	ram3, _, _ := svcSeeds(8)
	if ram3 == ram1 {
		t.Error("different seeds share service specs")
	}
	w, _ := findWorkload("nic16")
	if w.passes(20) != w.passes(20) || w.passes(20) <= w.passes(10) {
		t.Error("passes must depend on --seconds alone and grow with it")
	}
}

// A held-out seed must change every content hash and none of the
// simulated work, or cold ops of different runs would not be comparable.
func TestHeldOutSeedSameWork(t *testing.T) {
	run := func(seed int64) (string, outcome) {
		_, _, coldBase := svcSeeds(seed)
		c, err := canonical(string(svcSpec(coldBase)))
		if err != nil {
			t.Fatal(err)
		}
		out, err := service.Execute(c)
		if err != nil {
			t.Fatal(err)
		}
		r := out.Result
		return r.Hash, outcome{MeanUs: r.MeanMicros, Barriers: r.Barriers, Retrans: r.Retrans}
	}
	h1, o1 := run(3)
	h2, o2 := run(990_001)
	if h1 == h2 {
		t.Error("held-out seed produced the same spec hash")
	}
	if !reflect.DeepEqual(o1, o2) {
		t.Errorf("held-out seed changed the simulated work: %+v vs %+v", o1, o2)
	}
	exp, err := loadExpectations()
	if err != nil {
		t.Fatal(err)
	}
	want := exp["svc"]["cold"]
	want.Counters = nil
	if !reflect.DeepEqual(o1, want) {
		t.Errorf("cold spec simulates %+v, expected.json pins %+v", o1, want)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "op", Start: ms(0), End: ms(100)},               // 1
		{Name: "call", Parent: 1, Start: ms(10), End: ms(60)},  // 2
		{Name: "call", Parent: 1, Start: ms(50), End: ms(80)},  // 3: overlaps 2
		{Name: "inner", Parent: 2, Start: ms(20), End: ms(30)}, // 4
		{Name: "late", Parent: 1, Start: ms(95), End: ms(120)}, // 5: clipped to parent
		{Name: "driver.ref", Start: ms(100), End: ms(101)},     // 6
	}
	want := []time.Duration{ms(100 - 70 - 5), ms(40), ms(30), ms(10), ms(25), ms(1)}
	got := selfTimes(spans)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if by := selfByName(spans); by["call"] != ms(70) {
		t.Errorf("selfByName[call] = %v, want 70ms", by["call"])
	}

	tr := newTracer()
	op := tr.begin("op", 0, 1)
	tr.end(tr.begin("call", op, 1))
	tr.end(op)
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]int `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace does not load: %v", err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Args["parent"] != 1 || doc.TraceEvents[1].Ph != "X" {
		t.Errorf("Chrome trace events = %+v", doc.TraceEvents)
	}
	var off *tracer
	off.end(off.begin("x", 0, 0)) // a nil tracer records nothing and does not panic
}

// benchmarkFile is the contract at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json and metrics.go must declare the same metrics, and the
// workloads the same names, or the acceptance driver and the program
// disagree about what a run reports.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := loadBenchmarkFile(t)
	var e2e, layer []metricDef
	maxBound, setupBound := 0.0, -1.0
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.10 {
			t.Errorf("%s: bound %v outside (0, 0.10]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEndDefs) {
		t.Errorf("end_to_end = %v, metrics.go declares %v", e2e, endToEndDefs)
	}
	if !reflect.DeepEqual(layer, perLayerDefs) {
		t.Errorf("per_layer differs from metrics.go:\n%v\n%v", layer, perLayerDefs)
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef{}, endToEndDefs...), perLayerDefs...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]{1,64}", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
	if len(names) != len(workloads()) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %d", names, len(workloads()))
	}
	exp, err := loadExpectations()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		if len(exp[w.name]) == 0 {
			t.Errorf("expected.json pins nothing for workload %s", w.name)
		}
	}
}

// inTemp runs the test from a scratch directory so service state and
// traces do not land in the source tree.
func inTemp(t *testing.T) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(old) })
}

func lastLine(t *testing.T, out string) verdict {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var v verdict
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return v
}

// One short pass of a workload, end to end: every printed metric is
// declared, the verdict carries exactly the gated metrics, and a wrong
// expectation turns the exit code non-zero.
func TestRunPrintsDeclaredMetricsAndChecksOutputs(t *testing.T) {
	inTemp(t)
	exp, err := loadExpectations()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("nic16")
	var stdout, stderr bytes.Buffer
	if code := runEndToEnd(w, 5, 0.05, exp, 0, time.Now(), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	declared := make(map[string]string)
	for _, d := range append(append([]metricDef{}, endToEndDefs...), perLayerDefs...) {
		declared[d.name] = d.unit
	}
	printed := 0
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		if strings.HasPrefix(line, "#") || strings.HasPrefix(line, "{") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Errorf("metric line %q is not name value unit", line)
			continue
		}
		if unit, ok := declared[f[0]]; !ok || unit != f[2] {
			t.Errorf("printed metric %s (%s) is not declared with that unit", f[0], f[2])
		}
		printed++
	}
	if printed < len(endToEndDefs) {
		t.Errorf("printed %d metrics, want at least the %d gated ones", printed, len(endToEndDefs))
	}
	v := lastLine(t, stdout.String())
	if !v.Correct || v.Failed != 0 || v.Attempted < 4 {
		t.Errorf("verdict %+v", v)
	}
	if len(v.Metrics) != len(endToEndDefs) {
		t.Errorf("verdict has %d metrics, want %d", len(v.Metrics), len(endToEndDefs))
	}
	for _, d := range endToEndDefs {
		if m, ok := v.Metrics[d.name]; !ok || m.Unit != d.unit || !(m.Value > 0) {
			t.Errorf("verdict metric %s = %+v", d.name, m)
		}
	}

	// The same run against a deliberately wrong expectation.
	wrong := expectations{"nic16": {}}
	for op, o := range exp["nic16"] {
		wrong["nic16"][op] = o
	}
	bad := wrong["nic16"]["pe_l43"]
	bad.MeanUs += 0.001
	wrong["nic16"]["pe_l43"] = bad
	stdout.Reset()
	if code := runEndToEnd(w, 5, 0.05, wrong, 0, time.Now(), &stdout, &stderr); code == 0 {
		t.Error("a wrong expectation still exited 0")
	}
	if v := lastLine(t, stdout.String()); v.Correct || v.Failed == 0 || v.Failed >= v.Attempted {
		t.Errorf("verdict with one wrong expectation: %+v", v)
	}
}

// The service workload's tier check: every op must be served by the tier
// its type names, by /metrics deltas and X-Cache.
func TestSvcTiers(t *testing.T) {
	inTemp(t)
	exp, err := loadExpectations()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("svc")
	var stdout, stderr bytes.Buffer
	if code := runEndToEnd(w, 9, 0.05, exp, 0, time.Now(), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if v := lastLine(t, stdout.String()); !v.Correct || v.Attempted != 3*(w.warmPasses+1) {
		t.Errorf("verdict %+v", v)
	}
	if entries, err := os.ReadDir(stateRoot); err != nil || len(entries) != 0 {
		t.Errorf("service state left behind: %v %v", entries, err)
	}

	// A disk op expected to be served from RAM must fail the check.
	wrong := expectations{"svc": {"cold": exp["svc"]["cold"], "ram": exp["svc"]["ram"], "disk": exp["svc"]["ram"]}}
	stdout.Reset()
	if code := runEndToEnd(w, 9, 0.05, wrong, 0, time.Now(), &stdout, &stderr); code == 0 {
		t.Error("a wrong tier expectation still exited 0")
	}
}

func TestFlagsRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "nic16", "--seconds", "0"},
		{"--workload", "nic16", "--trace", "2"},
		{},
	} {
		if code := realMain(args, &stdout, &stderr); code == 0 {
			t.Errorf("args %v exited 0", args)
		}
	}
}
