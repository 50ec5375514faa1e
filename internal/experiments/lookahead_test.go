package experiments

import (
	"fmt"
	"testing"

	"gmsim/internal/cluster"
	"gmsim/internal/mcp"
	"gmsim/internal/network"
	"gmsim/internal/sim"
)

// sameBothWays runs a cell plain — each rank leads the event loop by what it
// has been charged — and holds it to the pinned outcome of the same cell run
// settled, when every host charge was a sleep of its own (ref): the same
// summary or the same error, the same firmware counters on every NIC, and
// fewer events executed to get there. The cell's observed run is held to its
// plain run (sameObserved). It returns the plain run's error.
func sameBothWays(t *testing.T, ref *reference, cell string, spec Spec) error {
	t.Helper()
	plain := runCell(t, spec, false)
	if settled := ref.check(t, cell, plain); plain.work.events >= settled {
		t.Errorf("%s: the plain run executed %d events, the settled run %d: nothing was saved",
			cell, plain.work.events, settled)
	}
	sameObserved(t, cell, spec, plain)
	return plain.err
}

// TestLookaheadMatchesSettledRuns is the whole-stack differential for host
// processes that run ahead of the event loop (sim.Proc.Advance): every cell
// is run plain and must leave the summary and the firmware counters on every
// NIC, to the bit, that it left when every host charge was a sleep
// (testdata/lookahead.golden, pinned from the settled runs before that form
// was removed; regenerate only on a deliberate behaviour change). Every cell
// is also run observed, which must execute the plain run event for event.
// The clean matrix is
// TestOneEventHopMatchesArrivalEventRuns's 192 cells — NIC and host level,
// both algorithms, reliable barrier frames or not, one crossbar on both card
// models and three multi-switch shapes. The crash sweep fail-stops one of
// four victims (rank 0, whose clock the summary reads, among them) at 69
// instants 7.3 µs apart across the first six barriers, so that a crash lands
// on every part of a rank's barrier — between two charges, inside one, while
// the rank waits: a process that had published anything, or rung a doorbell,
// past the instant it died would move a counter or max_iter_us. Host-level
// barriers have no failure detection, so their crash cells deadlock; they
// must do so at the pinned instant.
func TestLookaheadMatchesSettledRuns(t *testing.T) {
	ref := loadReference(t, "lookahead")
	algOf := func(spec Spec, dim int) Spec {
		spec.Alg, spec.Dim = mcp.GB, dim
		if dim == 0 {
			spec.Alg = mcp.PE
		}
		return spec
	}
	clean := 0
	for _, bed := range differentialBeds() {
		for _, reliable := range []bool{false, true} {
			for _, level := range []Level{NICLevel, HostLevel} {
				for _, dim := range []int{0, 1, 2, 4} { // 0: PE
					spec := algOf(Spec{Cluster: bed.cfg, Level: level, Warmup: 3, Iters: 10}, dim)
					spec.Cluster.ReliableBarrier = reliable
					cell := fmt.Sprintf("%s reliable=%v level=%v dim=%d", bed.name, reliable, level, dim)
					if err := sameBothWays(t, ref, cell, spec); err != nil {
						t.Errorf("%s: %v", cell, err)
					}
					clean++
				}
			}
		}
	}

	crashed := 0
	for _, dim := range []int{0, 2, 4} {
		for _, victim := range []network.NodeID{0, 5, 10, 15} {
			for at := sim.FromMicros(100); at < sim.FromMicros(600); at += sim.FromMicros(7.3) {
				spec := algOf(Spec{Cluster: detectCfg(16, crashPlan(1, victim, at)), Warmup: 2, Iters: 8}, dim)
				cell := fmt.Sprintf("crash of %d at %v, NIC level dim=%d", victim, at, dim)
				if err := sameBothWays(t, ref, cell, spec); err != nil {
					t.Errorf("%s: %v", cell, err)
				}
				crashed++
			}
		}
	}

	// Host level: the survivors strand, each on a clock of its own.
	stranded := 0
	for _, dim := range []int{0, 2} {
		for _, victim := range []network.NodeID{0, 5} {
			for _, at := range []sim.Time{sim.FromMicros(151.3), sim.FromMicros(304.9), sim.FromMicros(500)} {
				spec := algOf(Spec{Cluster: detectCfg(16, crashPlan(1, victim, at)), Level: HostLevel, Warmup: 2, Iters: 8}, dim)
				cell := fmt.Sprintf("crash of %d at %v, host level dim=%d", victim, at, dim)
				if err := sameBothWays(t, ref, cell, spec); err == nil {
					t.Errorf("%s: completed; host-level barriers have no failure detection", cell)
				}
				stranded++
			}
		}
	}
	// Collectives through Run, whose every rank publishes its round's start
	// and end: each op at both levels, then a NIC AllReduce and Broadcast
	// with a victim crashed at a few instants.
	for _, op := range []Op{Broadcast, Reduce, AllReduce, AllGather} {
		for _, level := range []Level{NICLevel, HostLevel} {
			spec := Spec{Cluster: cluster.DefaultConfig(16), Level: level, Op: op, Dim: 3, Elems: 4, Warmup: 2, Iters: 6}
			cell := fmt.Sprintf("%s level=%v", spec.label(), level)
			if err := sameBothWays(t, ref, cell, spec); err != nil {
				t.Errorf("%s: %v", cell, err)
			}
			clean++
		}
	}
	for _, op := range []Op{AllReduce, Broadcast} {
		for _, victim := range []network.NodeID{0, 1, 15} {
			for at := sim.FromMicros(150); at < sim.FromMicros(600); at += sim.FromMicros(61.7) {
				spec := Spec{Cluster: detectCfg(16, crashPlan(1, victim, at)), Op: op, Dim: 4, Elems: 1, Warmup: 2, Iters: 8}
				cell := fmt.Sprintf("crash of %d at %v, NIC %s", victim, at, spec.label())
				if err := sameBothWays(t, ref, cell, spec); err != nil {
					t.Errorf("%s: %v", cell, err)
				}
				crashed++
			}
		}
	}
	t.Logf("%d clean, %d crashed and %d stranded cells as pinned, observed or not", clean, crashed, stranded)
}
