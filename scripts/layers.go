//go:build ignore

// layers.go runs root benchmarks under a CPU profile and folds every sample
// into the simulator's layers, so "where did the host time go?" has one table
// per benchmark. Usage, from the repository root:
//
//	go run scripts/layers.go Host16=200x Clos256=20x
//
// Each argument is a benchmark of the root package without its "Benchmark"
// prefix and the -benchtime to run it with (default 20x). A fixed iteration
// count makes two commits' tables compare in seconds, not only in shares.
//
// A sample belongs to the first frame, walking from the leaf towards the
// root, that names a layer; runtime helpers the code calls (memmove, map
// access, a syscall) are charged to the layer that called them:
//
//   - process handoff: sim.Proc, sim.Signal and their wait lists, starting
//     a process and its coroutine's own frames (Start, startProc, runProc,
//     a Spawn cell's body), iter.Pull and the runtime's coroutine switch
//     beneath them;
//   - scheduler: the rest of internal/sim (event queue, calendar, Run);
//   - firmware: internal/mcp, internal/lanai;
//   - fabric: internal/network, internal/topo;
//   - recorder: internal/phase, internal/trace;
//   - host: the modelled host side and the harness above it (internal/gm,
//     core, host, mpi, cluster, experiments, fault, model, mem, stats);
//   - service: internal/service, encoding/json, crypto/sha256, hash/crc32,
//     fsync;
//   - GC: allocation and collection (mallocgc, the mark and sweep workers,
//     write barriers);
//   - other: whatever is left (the Go scheduler, the benchmark's own loop).
//
// Only the standard library and `go tool pprof` are used.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

var layers = []string{"scheduler", "process handoff", "firmware", "fabric", "recorder", "host", "service", "GC", "other"}

// layerOf names the layer a frame belongs to, or "" for a frame that is
// charged to its caller.
func layerOf(fn string) string {
	const mod = "gmsim/internal/"
	switch {
	case strings.HasPrefix(fn, mod+"sim."):
		for _, h := range []string{"(*Proc)", "(*Signal)", "(*waitList)",
			"(*Simulator).Start", "(*Simulator).runProc", "startProc", "runSpawnCell"} {
			if strings.HasPrefix(fn, mod+"sim."+h) {
				return "process handoff"
			}
		}
		return "scheduler"
	case strings.HasPrefix(fn, "iter.Pull"), strings.HasPrefix(fn, "runtime.coro"):
		return "process handoff"
	case strings.HasPrefix(fn, mod):
		pkg, _, _ := strings.Cut(strings.TrimPrefix(fn, mod), ".")
		switch pkg {
		case "mcp", "lanai":
			return "firmware"
		case "network", "topo":
			return "fabric"
		case "phase", "trace":
			return "recorder"
		case "service":
			return "service"
		default:
			return "host"
		}
	case strings.HasPrefix(fn, "encoding/json."), strings.HasPrefix(fn, "crypto/sha256."),
		strings.HasPrefix(fn, "hash/crc32."), strings.HasPrefix(fn, "os.(*File).Sync"),
		strings.HasPrefix(fn, "internal/poll.(*FD).Fsync"), strings.HasPrefix(fn, "syscall.Fsync"):
		return "service"
	case isGC(fn):
		return "GC"
	}
	return ""
}

// isGC reports whether fn is the runtime's allocator or collector.
func isGC(fn string) bool {
	for _, p := range []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
		"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.markroot",
		"runtime.scanobject", "runtime.greyobject", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.sweepone", "runtime.gcWriteBarrier", "runtime.wbBuf", "runtime.bulkBarrier",
		"runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*gcWork)",
		"runtime.(*mspan)", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// sample is one stack of the profile, leaf first, and the CPU time it took.
type sample struct {
	stack []string
	d     time.Duration
}

// traces reads `go tool pprof -traces`: blocks separated by dashed lines,
// one line per frame, leaf first, each the sample's time right-aligned in
// ten columns (blank after the first line), three spaces and the function.
func traces(out []byte) ([]sample, error) {
	var all []sample
	var cur *sample
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			cur = nil
			continue
		}
		if len(line) <= 13 || line[10:13] != "   " {
			continue // the header
		}
		fn := strings.TrimSuffix(line[13:], " (inline)")
		if v := strings.TrimSpace(line[:10]); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("sample time %q: %w", v, err)
			}
			all = append(all, sample{d: d, stack: []string{fn}})
			cur = &all[len(all)-1]
		} else if cur != nil {
			cur.stack = append(cur.stack, fn)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("no samples in the profile")
	}
	return all, nil
}

// fold charges each sample to its layer and, within the layer, to the frame
// that named it.
func fold(samples []sample) (byLayer map[string]time.Duration, byFrame map[string]map[string]time.Duration, total time.Duration) {
	byLayer = map[string]time.Duration{}
	byFrame = map[string]map[string]time.Duration{}
	for _, s := range samples {
		layer, frame := "other", s.stack[0]
		for _, fn := range s.stack {
			if l := layerOf(fn); l != "" {
				layer, frame = l, fn
				break
			}
		}
		byLayer[layer] += s.d
		if byFrame[layer] == nil {
			byFrame[layer] = map[string]time.Duration{}
		}
		byFrame[layer][frame] += s.d
		total += s.d
	}
	return byLayer, byFrame, total
}

// profile runs one benchmark under -cpuprofile in dir and returns its
// samples.
func profile(dir, name, benchtime string) ([]sample, error) {
	bin, prof := filepath.Join(dir, "gmsim.test"), filepath.Join(dir, name+".prof")
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", "^Benchmark"+name+"$", "-benchtime", benchtime,
		"-cpuprofile", prof, "-o", bin, ".")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test: %w", err)
	}
	out, err := exec.Command("go", "tool", "pprof", "-traces", bin, prof).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return traces(out)
}

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: go run scripts/layers.go Name[=benchtime]...  (e.g. Host16=200x Clos256=20x)")
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run profiles each benchmark and prints its table.
func run(args []string) error {
	dir, err := os.MkdirTemp("", "layers")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, arg := range args {
		name, benchtime, ok := strings.Cut(arg, "=")
		if !ok {
			benchtime = "20x"
		}
		samples, err := profile(dir, name, benchtime)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("\nBenchmark%s, -benchtime %s\n\n", name, benchtime)
		table(samples)
	}
	return nil
}

// table prints one markdown row per layer: its share of the samples, their
// seconds, and the frame the largest part of them was charged to.
func table(samples []sample) {
	byLayer, byFrame, total := fold(samples)
	fmt.Println("| layer | share | seconds | largest frame |")
	fmt.Println("|---|---:|---:|---|")
	for _, l := range layers {
		top, topD := "", time.Duration(0)
		for _, f := range slices.Sorted(maps.Keys(byFrame[l])) { // ties go to the first name
			if byFrame[l][f] > topD {
				top, topD = f, byFrame[l][f]
			}
		}
		if top != "" {
			top = fmt.Sprintf("`%s` %.1f %%", strings.TrimPrefix(top, "gmsim/internal/"), 100*topD.Seconds()/total.Seconds())
		}
		d := byLayer[l]
		fmt.Printf("| %s | %.1f %% | %.2f | %s |\n", l, 100*d.Seconds()/total.Seconds(), d.Seconds(), top)
	}
	fmt.Printf("| all | 100 %% | %.2f | |\n", total.Seconds())
}
