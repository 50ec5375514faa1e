package experiments

import (
	"fmt"
	"testing"

	"gmsim/internal/cluster"
	"gmsim/internal/mcp"
	"gmsim/internal/network"
	"gmsim/internal/phase"
	"gmsim/internal/sim"
	"gmsim/internal/topo"
)

// bothWays is one cell's outcome for TestLookaheadMatchesSettledRuns: what a
// run leaves behind that a host process's clock could have moved.
type bothWays struct {
	summary string // Summary.String(), empty when the run failed
	err     string // the run's error, empty when it succeeded
	stats   []mcp.Stats
	events  int64
}

// runLookahead runs spec on a fresh session. settled attaches a phase
// recorder to the cluster before any rank spawns: recording is passive, but
// a host process with a recorder attached settles every host charge the
// moment it is made (host.Process.ComputePhase) and pre-posts its receive
// buffers one call at a time, so it executes the long form of the run event
// for event. A plain run lets each process lead the event loop by what it
// has been charged.
func runLookahead(t *testing.T, spec Spec, settled bool) bothWays {
	t.Helper()
	s, err := NewSession(spec.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if settled {
		s.Cluster.SetPhaseRecorder(phase.NewRecorder())
	}
	var r bothWays
	out, err := s.measure(spec, nil)
	if err != nil {
		r.err = err.Error()
	} else {
		r.summary = out.Summary.String()
	}
	r.stats = make([]mcp.Stats, s.Cluster.Nodes())
	for i := range r.stats {
		r.stats[i] = s.Cluster.MCP(i).Stats()
	}
	r.events = s.Cluster.Sim().Executed()
	return r
}

// sameBothWays holds a cell's plain run to its settled run: the same summary
// (or the same error), the same firmware counters on every NIC — a dead one
// included — and fewer events executed to get there.
func sameBothWays(t *testing.T, cell string, spec Spec) (plain, settled bothWays) {
	t.Helper()
	plain, settled = runLookahead(t, spec, false), runLookahead(t, spec, true)
	if plain.summary != settled.summary || plain.err != settled.err {
		t.Errorf("%s:\n--- ahead\n%s%s\n--- settled\n%s%s", cell, plain.summary, plain.err, settled.summary, settled.err)
	}
	for i := range plain.stats {
		if plain.stats[i] != settled.stats[i] {
			t.Errorf("%s: node %d firmware counters differ:\n--- ahead\n%+v\n--- settled\n%+v",
				cell, i, plain.stats[i], settled.stats[i])
		}
	}
	if plain.events >= settled.events {
		t.Errorf("%s: the plain run executed %d events, the settled run %d: nothing was saved",
			cell, plain.events, settled.events)
	}
	return plain, settled
}

// TestLookaheadMatchesSettledRuns is the whole-stack differential for host
// processes that run ahead of the event loop (sim.Proc.Advance): every cell
// is run plain and settled (see runLookahead) and must leave the same summary
// and the same firmware counters on every NIC to the bit. The clean matrix is
// TestOneEventHopMatchesArrivalEventRuns's 192 cells — NIC and host level,
// both algorithms, reliable barrier frames or not, one crossbar on both card
// models and three multi-switch shapes. The crash sweep fail-stops one of
// four victims (rank 0, whose clock the summary reads, among them) at 69
// instants 7.3 µs apart across the first six barriers, so that a crash lands
// on every part of a rank's barrier — between two charges, inside one, while
// the rank waits: a process that had published anything, or rung a doorbell,
// past the instant it died would move a counter or max_iter_us. Host-level
// barriers have no failure detection, so their crash cells deadlock; they
// must do so at the same instant both ways.
func TestLookaheadMatchesSettledRuns(t *testing.T) {
	type testbed struct {
		name string
		cfg  cluster.Config
	}
	var beds []testbed
	for _, n := range []int{5, 8, 16} {
		beds = append(beds,
			testbed{fmt.Sprintf("crossbar-%d", n), cluster.DefaultConfig(n)},
			testbed{fmt.Sprintf("crossbar-%d-l72", n), cluster.LANai72Config(n)})
	}
	for _, n := range []int{24, 64} {
		beds = append(beds,
			testbed{fmt.Sprintf("star-%d", n), TopoConfig(topo.Star, n, 16)},
			testbed{fmt.Sprintf("clos2-%d", n), TopoConfig(topo.Clos2, n, 16)},
			testbed{fmt.Sprintf("clos3-%d", n), TopoConfig(topo.Clos3, n, 8)})
	}
	algOf := func(spec Spec, dim int) Spec {
		spec.Alg, spec.Dim = mcp.GB, dim
		if dim == 0 {
			spec.Alg = mcp.PE
		}
		return spec
	}
	clean := 0
	for _, bed := range beds {
		for _, reliable := range []bool{false, true} {
			for _, level := range []Level{NICLevel, HostLevel} {
				for _, dim := range []int{0, 1, 2, 4} { // 0: PE
					spec := algOf(Spec{Cluster: bed.cfg, Level: level, Warmup: 3, Iters: 10}, dim)
					spec.Cluster.ReliableBarrier = reliable
					cell := fmt.Sprintf("%s reliable=%v level=%v dim=%d", bed.name, reliable, level, dim)
					if plain, _ := sameBothWays(t, cell, spec); plain.err != "" {
						t.Errorf("%s: %s", cell, plain.err)
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
				if plain, _ := sameBothWays(t, cell, spec); plain.err != "" {
					t.Errorf("%s: %s", cell, plain.err)
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
				if plain, _ := sameBothWays(t, cell, spec); plain.err == "" {
					t.Errorf("%s: completed; host-level barriers have no failure detection", cell)
				}
				stranded++
			}
		}
	}
	t.Logf("%d clean, %d crashed and %d stranded cells identical both ways", clean, crashed, stranded)
}
