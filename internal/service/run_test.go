package service

import (
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"gmsim/internal/experiments"
)

func mustExecute(t *testing.T, s Spec) Outcome {
	t.Helper()
	c, err := s.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	out, err := Execute(c)
	if err != nil {
		t.Fatalf("%+v: %v", c, err)
	}
	return out
}

// TestExecuteFailStopHonoursTopoAware: under a fail-stop plan the GB tree
// is still mapped onto the fabric when the spec asks for it. On a 32-node
// clos2 of radix-8 switches the mapped dim-4 tree crosses fewer trunks than
// the flat one, so the two results must differ (they used to be equal: the
// scenario path dropped the flag).
func TestExecuteFailStopHonoursTopoAware(t *testing.T) {
	for _, plan := range []string{PlanCrash, PlanPartition} {
		base := Spec{Topo: "clos2", Radix: 8, Nodes: 32, Alg: "gb", Dim: 4, FaultPlan: plan, Iters: 8}
		flat := mustExecute(t, base).Result
		base.TopoAware = true
		mapped := mustExecute(t, base).Result
		if flat.MeanMicros == mapped.MeanMicros {
			t.Errorf("%s: topo_aware changed nothing (mean %.3fus both ways)", plan, flat.MeanMicros)
		}
		if flat.Hash == mapped.Hash {
			t.Errorf("%s: topo_aware does not split the hash", plan)
		}
	}
}

// TestExecuteOneResultShape: every run — fail-stop plans and multi-switch
// fabrics included — carries the timed window, a trace, and a decomposition
// that sums to the window; the scenario summary appears exactly when the
// plan is fail-stop.
func TestExecuteOneResultShape(t *testing.T) {
	cases := []struct {
		name     string
		spec     Spec
		failStop bool
	}{
		{"clean", Spec{Nodes: 8, Iters: 5}, false},
		{"flap", Spec{Nodes: 8, Iters: 5, FaultPlan: PlanFlap}, false},
		{"crash", Spec{Nodes: 8, Iters: 5, FaultPlan: PlanCrash}, true},
		{"clos2", Spec{Topo: "clos2", Radix: 8, Nodes: 32, Iters: 5}, false},
	}
	for _, c := range cases {
		out := mustExecute(t, c.spec)
		r := out.Result
		if r.EndNs <= r.StartNs || r.MeanMicros <= 0 || r.Barriers == 0 {
			t.Errorf("%s: empty timed window: %+v", c.name, r)
		}
		if !r.Traced || len(out.Trace) == 0 || len(r.Decomposition) == 0 || out.Metrics == nil {
			t.Errorf("%s: traced=%v trace=%dB decomposition=%d rows metrics=%v, want all present",
				c.name, r.Traced, len(out.Trace), len(r.Decomposition), out.Metrics != nil)
		}
		sum := r.IdleUs
		for _, row := range r.Decomposition {
			sum += row.CriticalUs
		}
		if window := float64(r.EndNs-r.StartNs) / 1e3; math.Abs(sum-window) > 1e-6 {
			t.Errorf("%s: decomposition sums to %vus, window is %vus", c.name, sum, window)
		}
		if (r.Scenario != "") != c.failStop {
			t.Errorf("%s: scenario text %q, want present=%v", c.name, r.Scenario, c.failStop)
		}
		if c.failStop && !strings.HasPrefix(r.Scenario, "scenario svc-"+r.Hash[:12]) {
			t.Errorf("%s: scenario not named after the hash: %q", c.name, r.Scenario)
		}
	}
}

// liveAfterGC returns the goroutine count and the in-use heap once the
// collector has had two full cycles to reclaim what finished runs dropped.
func liveAfterGC() (int, uint64) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtime.NumGoroutine(), ms.HeapInuse
}

// TestExecuteLeaksNothing: a fail-stop job used to leave its killed rank
// parked forever, pinning one goroutine and the whole cluster per job in a
// daemon built to stay up. Twenty crash jobs, and as many jobs that come
// back as a rank error, must leave the goroutine count and the live heap
// where they started (experiments.TestSessionReleasesStrandedRanks covers
// the ranks a failing peer strands).
func TestExecuteLeaksNothing(t *testing.T) {
	crash, err := Spec{Nodes: 16, FaultPlan: PlanCrash, Iters: 8}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	// Canonicalize refuses a GB dimension this large; Execute on the raw
	// spec reaches the harness, where every rank fails to build its token.
	badDim := crash
	badDim.FaultPlan, badDim.Seed = PlanNone, 0
	badDim.Alg, badDim.Dim = "gb", 99
	run := func() {
		if _, err := Execute(crash); err != nil {
			t.Fatal(err)
		}
		if _, err := Execute(badDim); !strings.Contains(fmt.Sprint(err), "dimension 99") {
			t.Fatalf("bad-dimension job: err = %v, want one naming the dimension", err)
		}
	}
	run() // warm lazily initialised state out of the baseline
	g0, h0 := liveAfterGC()
	for i := 0; i < 20; i++ {
		run()
	}
	for i := 0; i < 1000 && runtime.NumGoroutine() > g0; i++ {
		runtime.Gosched() // released goroutines need a moment to exit
	}
	g1, h1 := liveAfterGC()
	if g1 > g0 {
		t.Errorf("goroutines grew from %d to %d across 20 crash jobs and 20 failed jobs", g0, g1)
	}
	// One leaked 16-node cluster is ~0.7 MB; forty would be ~28 MB.
	if h1 > h0+4<<20 {
		t.Errorf("live heap grew from %d KB to %d KB", h0>>10, h1>>10)
	}
}

// allocated runs f and returns the bytes and heap objects it allocated.
// The collector cannot un-count either, so the figures are exact whatever
// GC does meanwhile.
func allocated(f func()) (bytes, objects uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestExecuteColdBudget bounds what one cold request allocates on the svc
// benchmark's cell (16 nodes, NIC PE, one link flap, 10 timed barriers). It
// read 12.3 MB and 40 987 objects while the trace went through
// encoding/json's reflection encoder (8.9 MB of that) and recordings grew by
// append, and 2.3 MB and 6 500 objects while an observer or a fault hook kept
// every packet and wire frame off the free lists, and 2.3 MB and 2 900
// while recordings held strings; it reads about 1.6 MB and 1 900 (2.9 MB
// when a collection took the export buffer from its pool). The second bound
// is what observation itself costs a run: records, and nothing else — about
// 1 MB and 600 objects while records held strings and the registry named
// every NIC's counters, about 360 KB and 110 since.
func TestExecuteColdBudget(t *testing.T) {
	spec, err := Spec{Nodes: 16, FaultPlan: PlanFlap, Seed: 7, Warmup: 5, Iters: 10}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	execute := func() {
		if _, err := Execute(spec); err != nil {
			t.Fatal(err)
		}
	}
	execute() // lazily initialised state and the export buffer are not per-call
	bytes, objects := allocated(execute)
	t.Logf("Execute: %d KB, %d objects", bytes>>10, objects)
	if bytes > 5500<<10 || objects > 4000 {
		t.Errorf("Execute allocated %d KB in %d objects, want at most 5500 KB in 4000", bytes>>10, objects)
	}

	espec, err := spec.Experiment()
	if err != nil {
		t.Fatal(err)
	}
	run := func(observe bool) func() {
		return func() {
			if _, err := experiments.Run(espec, observe); err != nil {
				t.Fatal(err)
			}
		}
	}
	observed, observedObjects := allocated(run(true))
	plain, plainObjects := allocated(run(false))
	t.Logf("experiments.Run: %d KB in %d objects observed, %d KB in %d unobserved",
		observed>>10, observedObjects, plain>>10, plainObjects)
	if observed > plain+400<<10 || observedObjects > plainObjects+200 {
		t.Errorf("observing the run cost %d KB and %d objects over its %d KB and %d, want at most 400 KB and 200",
			(observed-plain)>>10, observedObjects-plainObjects, plain>>10, plainObjects)
	}
}

// TestSubmitHitBudget bounds what a byte-identical repeat of a POST
// /v1/runs allocates through Server.Handler, the test request's and
// recorder's own objects included. The body index answers the repeat from
// the cached entry before any decoding: 43 objects while every repeat was
// decoded, canonicalized twice and hashed, about 21 since.
func TestSubmitHitBudget(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1})
	defer drainClose(t, srv)
	h := srv.Handler()
	const body = `{"nodes":16,"fault_plan":"flap","seed":7,"warmup":5,"iters":10}`
	submit := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/runs", strings.NewReader(body)))
		return w
	}
	if w := submit(); w.Code != 200 || w.Header().Get("X-Cache") != "miss" {
		t.Fatalf("cold submit: %d, X-Cache %q: %s", w.Code, w.Header().Get("X-Cache"), w.Body)
	}
	objects := testing.AllocsPerRun(200, func() {
		if w := submit(); w.Header().Get("X-Cache") != "hit" {
			t.Fatalf("repeat: %d, X-Cache %q", w.Code, w.Header().Get("X-Cache"))
		}
	})
	t.Logf("repeat submit: %.0f objects", objects)
	if objects > 24 {
		t.Errorf("a repeat submit allocated %.0f objects, want at most 24", objects)
	}
}
