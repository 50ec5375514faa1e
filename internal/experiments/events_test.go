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

// measured runs spec on a fresh session and also returns how many events
// the simulator executed, start to drain. With loopProvisioned a phase
// recorder is on from the start: recording is passive, but a session whose
// recorder is on pre-posts its receive buffers one call at a time
// (gm.Port.ProvideReceiveBuffers), so the run differs from a plain one in
// exactly that.
func measured(t *testing.T, spec Spec, loopProvisioned bool) (Outcome, int64) {
	t.Helper()
	s, err := NewSession(spec.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if loopProvisioned {
		s.Cluster.SetPhaseRecorder(phase.NewRecorder())
	}
	out, err := s.measure(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out, s.Cluster.Sim().Executed()
}

// TestEventsPerRankBarrier pins what one simulated barrier costs the engine,
// in executed events — the host-time driver that does not depend on the
// host. The same cell at two iteration counts gives the steady-state slope
// (events per rank per barrier) and the set-up intercept (everything that is
// not a barrier: spawn, port open, receive-token provisioning) as exact
// integers; the run is deterministic, so they repeat to the event.
//
// Before batched provisioning and the one-event fabric hop the three values
// read 85 / 532 992 (two events per pre-posted buffer: 256 ranks × 1040
// buffers) and 33. A rise is a performance regression to be explained — the
// benchmark's clos256 op_cal_ms moves with these counts — not a number to
// bump.
func TestEventsPerRankBarrier(t *testing.T) {
	const warmup, lo, hi = 5, 10, 20
	for _, tc := range []struct {
		name             string
		cfg              cluster.Config
		slope, intercept int64 // intercept < 0: not pinned
	}{
		// The benchmark's pe_steady cell: 8 dissemination steps over routes
		// of up to 5 switches.
		{"clos3-256 NIC PE", TopoConfig(topo.Clos3, 256, 16), 55, 267008},
		// The paper's testbed: 4 steps through one crossbar.
		{"crossbar-16 NIC PE", cluster.DefaultConfig(16), 25, -1},
	} {
		n := int64(tc.cfg.Nodes)
		spec := Spec{Cluster: tc.cfg, Level: NICLevel, Alg: mcp.PE, Warmup: warmup}
		spec.Iters = lo
		_, a := measured(t, spec, false)
		spec.Iters = hi
		_, b := measured(t, spec, false)
		if (b-a)%((hi-lo)*n) != 0 {
			t.Fatalf("%s: %d events for %d more barriers on %d ranks: not a whole number each", tc.name, b-a, hi-lo, n)
		}
		slope := (b - a) / ((hi - lo) * n)
		intercept := a - slope*(warmup+lo)*n
		t.Logf("%s: %d events per rank-barrier, %d outside barriers", tc.name, slope, intercept)
		if slope != tc.slope {
			t.Errorf("%s: %d events per rank-barrier, pinned at %d", tc.name, slope, tc.slope)
		}
		if tc.intercept >= 0 && intercept != tc.intercept {
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
		batch, batchEvents := measured(t, spec, false)
		loop, loopEvents := measured(t, spec, true)
		if got, want := batch.Summary.String(), loop.Summary.String(); got != want {
			t.Errorf("crash at %v:\n--- batch\n%s--- loop\n%s", at, got, want)
		}
		if sum := batch.Summary; sum.Finished != 15 || len(sum.Dead) != 1 || sum.Faults.Crashes != 1 {
			t.Errorf("crash at %v: not a crash the survivors repaired around: %s", at, sum)
		}
		// The two runs did provision differently: the loop spends two events
		// per buffer, the batch one.
		if loopEvents-batchEvents < 15*79 {
			t.Errorf("crash at %v: loop run executed %d events, batch run %d: the loop was not taken",
				at, loopEvents, batchEvents)
		}
	}
}

// measuredStats is measured for a caller that wants every NIC's firmware
// counters instead of the event count.
func measuredStats(t *testing.T, spec Spec) (Outcome, []mcp.Stats) {
	t.Helper()
	s, err := NewSession(spec.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	out, err := s.measure(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	stats := make([]mcp.Stats, s.Cluster.Nodes())
	for i := range stats {
		stats[i] = s.Cluster.MCP(i).Stats()
	}
	return out, stats
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
	cells := 0
	for _, bed := range beds {
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
