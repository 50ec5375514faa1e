package experiments

import (
	"fmt"
	"testing"

	"gmsim/internal/cluster"
	"gmsim/internal/fault"
	"gmsim/internal/mcp"
	"gmsim/internal/phase"
	"gmsim/internal/sim"
	"gmsim/internal/topo"
)

// engineWork is what a run cost the engine: events executed and process
// resumes (each a coroutine switch in and one out), start to drain.
type engineWork struct{ events, switches int64 }

// cellRun is what one run of a spec leaves behind for the differentials.
type cellRun struct {
	out   Outcome
	err   error       // from the run itself: a deadlock, a rank's error
	stats []mcp.Stats // every NIC's firmware counters, a dead one's included
	work  engineWork
}

// runCell runs spec on a fresh session. With settled a phase recorder is
// attached from the start: recording is passive, but a rank with a recorder
// attached settles every host charge at once (host.Process.ComputePhase) and
// pre-posts its receive buffers one call at a time
// (gm.Port.ProvideReceiveBuffers), so it executes the long form of the run
// event for event. A plain run lets each rank lead the event loop by what it
// has been charged, and provisions in batches.
func runCell(t *testing.T, spec Spec, settled bool) cellRun {
	t.Helper()
	s, err := NewSession(spec.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if settled {
		s.Cluster.SetPhaseRecorder(phase.NewRecorder())
	}
	var r cellRun
	r.out, r.err = s.measure(spec, nil)
	r.stats = make([]mcp.Stats, s.Cluster.Nodes())
	for i := range r.stats {
		r.stats[i] = s.Cluster.MCP(i).Stats()
	}
	r.work = engineWork{s.Cluster.Sim().Executed(), s.Cluster.Sim().Switches()}
	return r
}

// measured is runCell for a run that must succeed, by what it cost the
// engine.
func measured(t *testing.T, spec Spec, settled bool) (Outcome, engineWork) {
	t.Helper()
	r := runCell(t, spec, settled)
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.out, r.work
}

// TestEventsPerRankBarrier pins what one simulated barrier costs the engine,
// in executed events and in process resumes — the host-time drivers that do
// not depend on the host. The same cell at two iteration counts gives the
// steady-state cost of one barrier across the ranks and the set-up intercept
// (everything that is not a barrier: spawn, port open, receive-token
// provisioning) as exact integers; the run is deterministic, so they repeat
// to the event.
//
// Each cell is counted in both forms. Settled (see measured) is the long
// form, what every run executed before host charges became leads
// (sim.Proc.Advance): a charge is a sleep of its own, a timer event and a
// park, and a NIC barrier has four (provide_bar_buf, gm_barrier_send, detect,
// bar_done), a host PE step six. Ahead, a rank parks only for what is not
// there yet: a NIC barrier's completion; a host PE step's message and, if it
// is still out, its send completion. The "+ 1" is rank 0, which settles its
// lead before it publishes a timed iteration (Session.timed); in the host PE
// cell that park comes in place of another, for a send completion that now
// arrives while rank 0 settles and is found queued.
//
// Before batched provisioning and the one-event fabric hop the first row read
// 85 events a rank and 532 992 outside barriers (two events per pre-posted
// buffer: 256 ranks × 1040 buffers), the second 33. The intercept read
// 267 008 before the leads: it has gained the closing settle of every rank
// but rank 0, which is level after its last iteration. A rise is a
// performance regression to be explained — the benchmark's op_cal_ms moves
// with these counts — not a number to bump.
func TestEventsPerRankBarrier(t *testing.T) {
	const warmup, lo, hi = 5, 10, 20
	for _, tc := range []struct {
		name  string
		cfg   cluster.Config
		level Level
		alg   mcp.BarrierAlg
		dim   int
		// One timed barrier, all ranks together (a GB rank's share depends on
		// its place in the tree).
		ahead, settled engineWork
		intercept      int64 // events outside barriers, ahead; < 0: not pinned
	}{
		// The benchmark's pe_steady cell: 8 dissemination steps over routes
		// of up to 5 switches.
		{"clos3-256 NIC PE", TopoConfig(topo.Clos3, 256, 16), NICLevel, mcp.PE, 0,
			engineWork{256*51 + 1, 256*1 + 1}, engineWork{256 * 55, 256 * 5}, 267263},
		// The paper's testbed: 4 steps through one crossbar.
		{"crossbar-16 NIC PE", cluster.DefaultConfig(16), NICLevel, mcp.PE, 0,
			engineWork{16*21 + 1, 16*1 + 1}, engineWork{16 * 25, 16 * 5}, -1},
		// The benchmark's host16 cells.
		{"crossbar-16 host PE", cluster.DefaultConfig(16), HostLevel, mcp.PE, 0,
			engineWork{16*64 + 1, 16 * 8}, engineWork{16 * 88, 16 * 28}, -1},
		{"crossbar-16 host GB-2", cluster.DefaultConfig(16), HostLevel, mcp.GB, 2,
			engineWork{16*30 + 1, 60 + 1}, engineWork{660, 240}, -1}, // 41.25 events a rank, 15 resumes
	} {
		spec := Spec{Cluster: tc.cfg, Level: tc.level, Alg: tc.alg, Dim: tc.dim, Warmup: warmup}
		perBarrier := func(form string, settled bool, want engineWork) (atLo engineWork) {
			spec.Iters = lo
			_, a := measured(t, spec, settled)
			spec.Iters = hi
			_, b := measured(t, spec, settled)
			if (b.events-a.events)%(hi-lo) != 0 || (b.switches-a.switches)%(hi-lo) != 0 {
				t.Fatalf("%s, %s: %d events and %d resumes for %d more barriers: not a whole number each",
					tc.name, form, b.events-a.events, b.switches-a.switches, hi-lo)
			}
			got := engineWork{(b.events - a.events) / (hi - lo), (b.switches - a.switches) / (hi - lo)}
			n := float64(tc.cfg.Nodes)
			t.Logf("%s, %s: %d events and %d resumes per barrier (%.2f and %.2f a rank)",
				tc.name, form, got.events, got.switches, float64(got.events)/n, float64(got.switches)/n)
			if got != want {
				t.Errorf("%s, %s: %d events and %d resumes per barrier, pinned at %d and %d",
					tc.name, form, got.events, got.switches, want.events, want.switches)
			}
			return a
		}
		perBarrier("settled", true, tc.settled)
		a := perBarrier("ahead", false, tc.ahead)
		if tc.intercept < 0 {
			continue
		}
		// NIC level: rank 0 settles in the warm-up barriers too (measure).
		intercept := a.events - tc.ahead.events*(warmup+lo)
		t.Logf("%s: %d events outside barriers", tc.name, intercept)
		if intercept != tc.intercept {
			t.Errorf("%s: %d events outside barriers, pinned at %d", tc.name, intercept, tc.intercept)
		}
	}
}

// TestCrashMidProvisioningBatchEqualsLoop: a fail-stop crash that lands
// while the ranks are still pre-posting receive buffers leaves the same
// summary whether the buffers were posted as one batch or one call at a
// time.
func TestCrashMidProvisioningBatchEqualsLoop(t *testing.T) {
	// 16 ranks post 80 buffers each from 0.6 µs to 40.6 µs.
	for _, at := range []sim.Time{sim.FromMicros(20), sim.FromMicros(20.35), sim.FromMicros(40.7)} {
		spec := Spec{
			Cluster: detectCfg(16, crashPlan(1, 5, at)),
			Alg:     mcp.GB, Dim: 4, Warmup: 2, Iters: 8,
		}
		batch, batchWork := measured(t, spec, false)
		loop, loopWork := measured(t, spec, true)
		if got, want := batch.Summary.String(), loop.Summary.String(); got != want {
			t.Errorf("crash at %v:\n--- batch\n%s--- loop\n%s", at, got, want)
		}
		if sum := batch.Summary; sum.Finished != 15 || len(sum.Dead) != 1 || sum.Faults.Crashes != 1 {
			t.Errorf("crash at %v: not a crash the survivors repaired around: %s", at, sum)
		}
		// The two runs did provision differently: the loop spends two events
		// per buffer, the batch one.
		if loopWork.events-batchWork.events < 15*79 {
			t.Errorf("crash at %v: loop run executed %d events, batch run %d: the loop was not taken",
				at, loopWork.events, batchWork.events)
		}
	}
}

// measuredStats is measured for a caller that wants every NIC's firmware
// counters instead of the engine's work.
func measuredStats(t *testing.T, spec Spec) (Outcome, []mcp.Stats) {
	t.Helper()
	r := runCell(t, spec, false)
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.out, r.stats
}

// testbed is one fabric of the whole-stack differentials.
type testbed struct {
	name string
	cfg  cluster.Config
}

// differentialBeds are the fabrics the whole-stack differentials sweep: one
// crossbar at three sizes on both card models, and three multi-switch shapes
// at two sizes.
func differentialBeds() []testbed {
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
	return beds
}

// TestOneEventHopMatchesArrivalEventRuns is the whole-stack differential for
// the fabric's one-event hop and for the frame lease: attaching an empty
// fault plan installs the injector's hook, which puts every hop back on its
// arrival event, keeps every packet and wire frame out of the free lists
// (Iface.Recycle's gate) and is otherwise free, so each cell run both ways
// must give the same summary and the same firmware counters on every NIC to
// the bit — NIC and host level (barrier frames; data and ack frames), both
// algorithms, reliable barrier frames (retained by value, acks of another
// size on the wire) or not, one crossbar and three multi-switch shapes. A
// frame handled after it went back to a free list would show up as a
// ProtocolErrors count on the pooled side only.
// TestZeroFaultScenariosMatchFigure5 pins two such cells against Figure 5;
// this sweeps the configurations nothing else pins.
func TestOneEventHopMatchesArrivalEventRuns(t *testing.T) {
	cells := 0
	for _, bed := range differentialBeds() {
		for _, reliable := range []bool{false, true} {
			for _, level := range []Level{NICLevel, HostLevel} {
				for _, dim := range []int{0, 1, 2, 4} { // 0: PE
					spec := Spec{Cluster: bed.cfg, Level: level, Alg: mcp.GB, Dim: dim, Warmup: 3, Iters: 10}
					if dim == 0 {
						spec.Alg = mcp.PE
					}
					spec.Cluster.ReliableBarrier = reliable
					plain, pooled := measuredStats(t, spec)
					spec.Cluster.Fault = &fault.Plan{}
					hooked, unpooled := measuredStats(t, spec)
					cells++
					cell := fmt.Sprintf("%s reliable=%v level=%v dim=%d", bed.name, reliable, level, dim)
					if got, want := plain.Summary.String(), hooked.Summary.String(); got != want {
						t.Errorf("%s:\n--- one event per hop\n%s--- arrival events\n%s", cell, got, want)
					}
					for i := range pooled {
						if pooled[i] != unpooled[i] {
							t.Errorf("%s: node %d firmware counters differ:\n--- pooled\n%+v\n--- unpooled\n%+v",
								cell, i, pooled[i], unpooled[i])
						}
						if pooled[i].ProtocolErrors != 0 {
							t.Errorf("%s: node %d: %d protocol errors", cell, i, pooled[i].ProtocolErrors)
						}
					}
				}
			}
		}
	}
	t.Logf("%d cells identical both ways", cells)
}
