package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"gmsim/internal/cluster"
	"gmsim/internal/core"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/network"
	"gmsim/internal/sim"
	"gmsim/internal/topo"
)

// TestRunOnePath: observing and failure detection are orthogonal to what
// a fault-free run measures. Every combination of them reproduces, bit for
// bit, the timed window the dedicated loops measured before they were
// folded into Run — the Figure 5 cells (the PE pin is the
// pre-instrumentation one of TestTraceOverheadZero) and the
// pe32-clos2-clean fleet cell (mean 124.461 µs in its golden file).
func TestRunOnePath(t *testing.T) {
	single := cluster.DefaultConfig(16)
	clos2 := clos2Cfg(32, 8)
	cells := []struct {
		name       string
		cfg        cluster.Config
		alg        mcp.BarrierAlg
		dim, iters int
		start, end sim.Time
		barriers   int64
	}{
		{"pe16", single, mcp.PE, 0, 60, 546265, 6614245, 1040},
		{"gb16-dim4", single, mcp.GB, 4, 60, 716356, 9707596, 1040},
		{"pe32-clos2", clos2, mcp.PE, 0, 20, 695205, 3184425, 800},
		{"gb32-clos2-dim4", clos2, mcp.GB, 4, 20, 923187, 4704727, 800},
	}
	for _, c := range cells {
		for _, detect := range []bool{false, true} {
			for _, observe := range []bool{false, true} {
				// "partitions=1" stays in the name so the subtest IDs
				// that test floors record did not change when the
				// partitioned engine was removed.
				name := fmt.Sprintf("%s/partitions=1/detect=%v/observe=%v", c.name, detect, observe)
				t.Run(name, func(t *testing.T) {
					spec := Spec{Cluster: c.cfg, Alg: c.alg, Dim: c.dim, Iters: c.iters}
					spec.Cluster.DetectFailures = detect
					out, err := Run(spec, observe)
					if err != nil {
						t.Fatal(err)
					}
					if out.Start != c.start || out.End != c.end || out.Barriers != c.barriers || out.Retrans != 0 {
						t.Errorf("start/end/barriers/retrans = %d/%d/%d/%d, want %d/%d/%d/0",
							out.Start, out.End, out.Barriers, out.Retrans, c.start, c.end, c.barriers)
					}
					if want := (c.end - c.start).Micros() / float64(c.iters); out.MeanMicros != want {
						t.Errorf("mean %vus, want %vus", out.MeanMicros, want)
					}
					n := spec.Cluster.Nodes
					sum := out.Summary
					if sum.MeanMicros != out.MeanMicros || sum.Barriers != out.Barriers {
						t.Errorf("summary disagrees with the result: %+v", sum)
					}
					if sum.Finished != n || sum.Agree != n || len(sum.Dead) != 0 || sum.Declared != 0 || sum.Probes != 0 {
						t.Errorf("fault-free run shows failures or detection activity: %+v", sum)
					}
					if sum.MaxIterMicros < sum.MeanMicros || sum.DrainMicros < c.end.Micros() {
						t.Errorf("max iteration %vus / drain %vus inconsistent with the window", sum.MaxIterMicros, sum.DrainMicros)
					}
					if !observe {
						if out.Rec != nil || out.Metrics != nil {
							t.Error("unobserved run carries a recorder")
						}
						return
					}
					if out.Rec == nil || out.Rec.Phases().Len() == 0 || out.Metrics == nil {
						t.Fatal("observed run recorded nothing")
					}
					if d := out.Decomp; d.Start != c.start || d.End != c.end || d.CriticalSum() != d.Elapsed() {
						t.Errorf("decomposition covers [%d,%d] summing to %v of %v", d.Start, d.End, d.CriticalSum(), d.Elapsed())
					}
				})
			}
		}
	}
}

// TestHostProgramOpsObservedMatchPlain: the four host-program Ops run
// observed exactly as plain — the same timed window and mean, bit for bit —
// and the observed run's decomposition partitions that window. Before they
// were Ops of Run these programs could not be observed at all.
func TestHostProgramOpsObservedMatchPlain(t *testing.T) {
	star := cluster.DefaultConfig(8)
	star.Switch = network.DefaultSwitchParams(6)
	star.Topology = &topo.Spec{Kind: topo.Star, Radix: 6, LeafNodes: 4}
	cells := []struct {
		name string
		spec Spec
	}{
		{"pingpong", Spec{Cluster: cluster.DefaultConfig(2), Op: PingPong, Bytes: 64, Iters: 20}},
		{"mpi-nic", Spec{Cluster: cluster.DefaultConfig(8), Op: MPIBarrier, Iters: 10}},
		{"mpi-host", Spec{Cluster: cluster.DefaultConfig(8), Level: HostLevel, Op: MPIBarrier, Iters: 10}},
		{"bsp-nic", Spec{Cluster: cluster.DefaultConfig(8), Op: BSP, GrainMicros: 50, Imbalance: 0.2, Warmup: 3, Iters: 10}},
		{"bsp-host-gb", Spec{Cluster: cluster.DefaultConfig(8), Level: HostLevel, Op: BSP, Alg: mcp.GB, Dim: 2, GrainMicros: 50, Imbalance: 0.2, Iters: 10}},
		{"streams-cross", Spec{Cluster: star, Op: Streams, Pairs: [][2]int{{0, 4}, {1, 5}}, Bytes: 1024, Iters: 10}},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			plain, err := Run(c.spec, false)
			if err != nil {
				t.Fatal(err)
			}
			obs, err := Run(c.spec, true)
			if err != nil {
				t.Fatal(err)
			}
			if obs.Start != plain.Start || obs.End != plain.End || obs.MeanMicros != plain.MeanMicros {
				t.Errorf("observed window [%d,%d) mean %v, plain [%d,%d) mean %v",
					obs.Start, obs.End, obs.MeanMicros, plain.Start, plain.End, plain.MeanMicros)
			}
			if plain.MeanMicros <= 0 || plain.End <= plain.Start {
				t.Errorf("empty measurement: %+v", plain.Summary)
			}
			d := obs.Decomp
			if d.Start != plain.Start || d.End != plain.End || d.CriticalSum() != d.Elapsed() || obs.Rec.Phases().Len() == 0 {
				t.Errorf("decomposition covers [%d,%d) summing to %v of %v over %d spans",
					d.Start, d.End, d.CriticalSum(), d.Elapsed(), obs.Rec.Phases().Len())
			}
		})
	}
}

// goroutinesSettle reports whether the goroutine count comes back down to
// base; exiting goroutines need a moment after the run returns.
func goroutinesSettle(base int) bool {
	for i := 0; i < 1000; i++ {
		if runtime.NumGoroutine() <= base {
			return true
		}
		runtime.Gosched()
	}
	return false
}

// TestRunReturnsErrors: a misconfigured model comes back from Run as an
// error naming the cause — never a panic, never a stranded-process report
// in place of the cause, and no rank left parked behind it.
func TestRunReturnsErrors(t *testing.T) {
	infeasible := cluster.DefaultConfig(40)
	infeasible.Topology = &topo.Spec{Kind: topo.Clos2, Radix: 4}
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"gb dim >= n", Spec{Cluster: cluster.DefaultConfig(8), Alg: mcp.GB, Dim: 8, Iters: 3}, "dimension 8 out of range"},
		{"host gb dim >= n", Spec{Cluster: cluster.DefaultConfig(8), Level: HostLevel, Alg: mcp.GB, Dim: 9, Iters: 3}, "dimension 9 out of range"},
		{"infeasible topology", Spec{Cluster: infeasible, Alg: mcp.PE, Iters: 3}, "clos2 capacity"},
		{"negative iters", Spec{Cluster: cluster.DefaultConfig(8), Alg: mcp.PE, Iters: -1}, "iters = -1"},
		{"allreduce dim >= n", Spec{Cluster: cluster.DefaultConfig(8), Op: AllReduce, Dim: 8, Elems: 1, Iters: 3}, "dimension 8 out of range"},
		{"host broadcast dim 0", Spec{Cluster: cluster.DefaultConfig(8), Level: HostLevel, Op: Broadcast, Elems: 1, Iters: 3}, "dimension 0 out of range"},
		{"collective negative iters", Spec{Cluster: cluster.DefaultConfig(8), Op: Reduce, Dim: 2, Iters: -1}, "iters = -1"},
		{"negative elems", Spec{Cluster: cluster.DefaultConfig(8), Op: Reduce, Dim: 2, Elems: -1, Iters: 3}, "-1 elements"},
		{"unknown op", Spec{Cluster: cluster.DefaultConfig(8), Op: Streams + 1, Dim: 2, Iters: 3}, "op 9"},
		{"pair endpoint >= nodes", Spec{Cluster: cluster.DefaultConfig(4), Op: Streams, Pairs: [][2]int{{0, 1}, {2, 4}}, Iters: 3}, "names node 4 of 4"},
		{"node in two pairs", Spec{Cluster: cluster.DefaultConfig(4), Op: Streams, Pairs: [][2]int{{0, 1}, {2, 1}}, Iters: 3}, "node 1 is in stream pairs 0 and 1"},
		{"streams without pairs", Spec{Cluster: cluster.DefaultConfig(4), Op: Streams, Iters: 3}, "no pairs"},
		{"negative bytes", Spec{Cluster: cluster.DefaultConfig(2), Op: PingPong, Bytes: -1, Iters: 3}, "-1-byte"},
		{"negative stream bytes", Spec{Cluster: cluster.DefaultConfig(4), Op: Streams, Pairs: [][2]int{{0, 1}}, Bytes: -8, Iters: 3}, "-8-byte"},
		{"negative grain", Spec{Cluster: cluster.DefaultConfig(4), Op: BSP, GrainMicros: -1, Iters: 3}, "grain -1us"},
		{"negative imbalance", Spec{Cluster: cluster.DefaultConfig(4), Op: BSP, GrainMicros: 10, Imbalance: -0.5, Iters: 3}, "imbalance -0.5"},
		{"ping-pong on 4 nodes", Spec{Cluster: cluster.DefaultConfig(4), Op: PingPong, Iters: 3}, "ping-pong on 4 nodes"},
		{"mpi barrier negative iters", Spec{Cluster: cluster.DefaultConfig(4), Op: MPIBarrier, Iters: -2}, "iters = -2"},
	}
	base := runtime.NumGoroutine()
	for _, c := range cases {
		for _, observe := range []bool{false, true} {
			_, err := Run(c.spec, observe)
			if !strings.Contains(fmt.Sprint(err), c.want) {
				t.Errorf("%s (observe=%v): err = %v, want one containing %q", c.name, observe, err, c.want)
			}
		}
	}
	if !goroutinesSettle(base) {
		t.Errorf("goroutines grew from %d to %d across failed runs", base, runtime.NumGoroutine())
	}
}

// TestRunCollectiveSurvivesCrash: a NIC AllReduce through Run on the
// detection testbed, one rank fail-stopped mid-run. The survivors complete
// degraded and keep going — a degraded completion counts as completed — so
// all 15 finish and the cluster drains without a stranded rank (Run would
// report one). Dead is what rank 0's last completion named: collective frames
// do not gossip the dead set, but the separator PE barriers do.
func TestRunCollectiveSurvivesCrash(t *testing.T) {
	spec := Spec{Cluster: detectCfg(16, crashPlan(1, 5, sim.FromMicros(700))), Op: AllReduce, Dim: 4, Elems: 1, Warmup: 2, Iters: 8}
	out, err := Run(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	sum := out.Summary
	if sum.Finished != 15 || sum.Agree != 15 || sum.Alg != "allreduce(dim=4)" || fmt.Sprint(sum.Dead) != "[5]" || sum.Declared == 0 {
		t.Errorf("crashed allreduce through Run:\n%s", sum)
	}
}

// TestSessionReleasesStrandedRanks: one rank fails, the other seven wait in
// a barrier that can never complete. The session reports the rank's error
// rather than the deadlock it caused, and Close lets the stranded ranks'
// goroutines exit.
func TestSessionReleasesStrandedRanks(t *testing.T) {
	base := runtime.NumGoroutine()
	s, err := NewSession(cluster.DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	g := core.UniformGroup(8, 2)
	boom := errors.New("boom")
	s.SpawnAll(func(p *host.Process, comm *core.Comm) error {
		if p.Rank() == 3 {
			return boom
		}
		return comm.Barrier(p, mcp.PE, g, p.Rank(), 0)
	})
	err = s.Run()
	if !errors.Is(err, boom) || !strings.Contains(fmt.Sprint(err), "rank 3") {
		t.Errorf("Run() = %v, want rank 3's error", err)
	}
	if live := s.Cluster.Sim().LiveProcs(); live != 7 {
		t.Errorf("%d ranks parked before Close, want the 7 stranded ones", live)
	}
	s.Close()
	if live := s.Cluster.Sim().LiveProcs(); live != 0 {
		t.Errorf("%d ranks still live after Close", live)
	}
	if !goroutinesSettle(base) {
		t.Errorf("goroutines grew from %d to %d: Close left stranded ranks parked", base, runtime.NumGoroutine())
	}
}

// TestSessionRankPanicReachesCaller: a rank body that panics mid-run takes
// the panic to whoever called Session.Run — the place a service worker's
// recover stands — rather than killing the program from a goroutine nobody
// can guard, and Close still releases the ranks the panic left parked.
func TestSessionRankPanicReachesCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	s, err := NewSession(cluster.DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	g := core.UniformGroup(8, 2)
	s.SpawnAll(func(p *host.Process, comm *core.Comm) error {
		if p.Rank() == 3 {
			p.Compute(10 * sim.Microsecond)
			panic("rank 3 exploded")
		}
		return comm.Barrier(p, mcp.PE, g, p.Rank(), 0)
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		return s.Run()
	}()
	if got != "rank 3 exploded" {
		t.Fatalf("around Session.Run: got %v, want rank 3's panic value", got)
	}
	s.Close()
	if live := s.Cluster.Sim().LiveProcs(); live != 0 {
		t.Errorf("%d ranks still live after Close", live)
	}
	if !goroutinesSettle(base) {
		t.Errorf("goroutines grew from %d to %d: Close left ranks parked behind the panic", base, runtime.NumGoroutine())
	}
}
