package experiments

import (
	"runtime"
	"testing"

	"gmsim/internal/cluster"
	"gmsim/internal/mcp"
)

// mallocsFor runs one measurement and returns how many heap objects it
// allocated. The collector cannot un-count a malloc, so the figure is exact
// whatever GC does meanwhile.
func mallocsFor(spec Spec) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	MeasureBarrier(spec)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSteadyStateAllocsPerBarrier guards the barrier hot path against
// allocation creep. The same 16-node cell is measured at two iteration
// counts; cluster construction, warm-up and pool growth cancel in the
// difference, leaving the steady-state slope in heap objects per rank per
// barrier. The change that added this test took NIC PE from 17 to 5 (four
// barrier frames and the token), NIC GB dim 2 from 11.4 to 3.4, and host
// PE from 83 to 15; sharing the Comm's memoized neighborhood with the host
// barriers took the exchange schedule off, leaving 12: three per message —
// data frame, ack frame, send token; frames are not pooled because
// retransmission and the fault layer's duplicate delivery keep them alive
// past their first arrival. Limits sit one above the measured slope: a
// stray runtime allocation between the two readings moves it by a hundredth.
func TestSteadyStateAllocsPerBarrier(t *testing.T) {
	const n, lo, hi = 16, 100, 300
	for _, tc := range []struct {
		name  string
		level Level
		alg   mcp.BarrierAlg
		dim   int
		max   float64
	}{
		{"nic-pe", NICLevel, mcp.PE, 0, 6},
		{"nic-gb2", NICLevel, mcp.GB, 2, 5},
		{"host-pe", HostLevel, mcp.PE, 0, 13},
	} {
		spec := Spec{Cluster: cluster.DefaultConfig(n), Level: tc.level, Alg: tc.alg, Dim: tc.dim, Warmup: 5}
		spec.Iters = lo
		mallocsFor(spec) // first run pays lazy package-level initialization
		a := mallocsFor(spec)
		spec.Iters = hi
		b := mallocsFor(spec)
		slope := (float64(b) - float64(a)) / float64((hi-lo)*n)
		t.Logf("%s: %.2f allocations per rank-barrier (limit %.0f)", tc.name, slope, tc.max)
		if slope > tc.max {
			t.Errorf("%s: %.2f allocations per rank-barrier, want <= %.0f", tc.name, slope, tc.max)
		}
	}
}
