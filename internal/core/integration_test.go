package core

import (
	"testing"

	"gmsim/internal/cluster"
	"gmsim/internal/gm"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/sim"
	"gmsim/internal/topo"
)

// runBarriers runs iters barriers of the given kind on an n-node cluster
// and returns per-rank enter and exit times for each barrier.
func runBarriers(t *testing.T, cfg cluster.Config, nicBased bool, alg mcp.BarrierAlg, dim, iters int, stagger func(rank int) sim.Time) (enter, exit [][]sim.Time) {
	t.Helper()
	n := cfg.Nodes
	enter = make([][]sim.Time, iters)
	exit = make([][]sim.Time, iters)
	for i := range enter {
		enter[i] = make([]sim.Time, n)
		exit[i] = make([]sim.Time, n)
	}
	cl := cluster.New(cfg)
	g := UniformGroup(n, 2)
	cl.SpawnAll(func(p *host.Process) {
		rank := p.Rank()
		port, err := gm.Open(p, cl.MCP(rank), 2)
		if err != nil {
			t.Errorf("rank %d open: %v", rank, err)
			return
		}
		comm, err := NewComm(p, port, 4*n+16)
		if err != nil {
			t.Errorf("rank %d comm: %v", rank, err)
			return
		}
		for it := 0; it < iters; it++ {
			if stagger != nil {
				p.Compute(stagger(rank))
			}
			enter[it][rank] = p.Now()
			if nicBased {
				err = comm.Barrier(p, alg, g, rank, dim)
			} else {
				err = comm.HostBarrier(p, alg, g, rank, dim)
			}
			if err != nil {
				t.Errorf("rank %d barrier %d: %v", rank, it, err)
				return
			}
			exit[it][rank] = p.Now()
		}
	})
	cl.Run()
	return enter, exit
}

// checkBarrierSemantics asserts the fundamental barrier property: no rank
// exits barrier i before every rank has entered it.
func checkBarrierSemantics(t *testing.T, enter, exit [][]sim.Time) {
	t.Helper()
	for it := range enter {
		var maxEnter, minExit sim.Time
		minExit = 1 << 62
		for r := range enter[it] {
			if enter[it][r] > maxEnter {
				maxEnter = enter[it][r]
			}
			if exit[it][r] < minExit {
				minExit = exit[it][r]
			}
			if exit[it][r] == 0 {
				t.Fatalf("barrier %d rank %d never exited", it, r)
			}
		}
		if minExit < maxEnter {
			t.Fatalf("barrier %d: rank exited at %v before last enter at %v", it, minExit, maxEnter)
		}
	}
}

func TestNICPEBarrierCompletes(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		enter, exit := runBarriers(t, cluster.DefaultConfig(n), true, mcp.PE, 0, 3, nil)
		checkBarrierSemantics(t, enter, exit)
	}
}

func TestNICGBBarrierCompletes(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		for _, dim := range []int{1, 2, n - 1} {
			if dim < 1 || dim > n-1 {
				continue
			}
			enter, exit := runBarriers(t, cluster.DefaultConfig(n), true, mcp.GB, dim, 3, nil)
			checkBarrierSemantics(t, enter, exit)
		}
	}
}

func TestHostPEBarrierCompletes(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		enter, exit := runBarriers(t, cluster.DefaultConfig(n), false, mcp.PE, 0, 3, nil)
		checkBarrierSemantics(t, enter, exit)
	}
}

func TestHostGBBarrierCompletes(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		for dim := 1; dim < n; dim++ {
			enter, exit := runBarriers(t, cluster.DefaultConfig(n), false, mcp.GB, dim, 3, nil)
			checkBarrierSemantics(t, enter, exit)
		}
	}
}

func TestNICPEBarrierNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{3, 5, 6, 7, 9, 12, 13} {
		enter, exit := runBarriers(t, cluster.DefaultConfig(n), true, mcp.PE, 0, 3, nil)
		checkBarrierSemantics(t, enter, exit)
	}
}

func TestHostPEBarrierNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{3, 5, 7, 11} {
		enter, exit := runBarriers(t, cluster.DefaultConfig(n), false, mcp.PE, 0, 3, nil)
		checkBarrierSemantics(t, enter, exit)
	}
}

func TestBarrierWithStaggeredArrival(t *testing.T) {
	// Ranks enter at very different times: unexpected-message machinery
	// must absorb early arrivals. The last arriver gates everyone.
	stagger := func(rank int) sim.Time { return sim.Time(rank) * 50 * sim.Microsecond }
	for _, alg := range []mcp.BarrierAlg{mcp.PE, mcp.GB} {
		dim := 2
		enter, exit := runBarriers(t, cluster.DefaultConfig(8), true, alg, dim, 4, stagger)
		checkBarrierSemantics(t, enter, exit)
	}
}

func TestBarrierReversedStagger(t *testing.T) {
	stagger := func(rank int) sim.Time { return sim.Time(16-rank) * 30 * sim.Microsecond }
	enter, exit := runBarriers(t, cluster.DefaultConfig(16), true, mcp.PE, 0, 3, stagger)
	checkBarrierSemantics(t, enter, exit)
}

func TestManyConsecutiveBarriers(t *testing.T) {
	enter, exit := runBarriers(t, cluster.DefaultConfig(8), true, mcp.PE, 0, 50, nil)
	checkBarrierSemantics(t, enter, exit)
}

func TestNICBarrierFasterThanHost(t *testing.T) {
	// The paper's headline: NIC-based PE beats host-based PE.
	n := 8
	iters := 10
	_, exitN := runBarriers(t, cluster.DefaultConfig(n), true, mcp.PE, 0, iters, nil)
	_, exitH := runBarriers(t, cluster.DefaultConfig(n), false, mcp.PE, 0, iters, nil)
	nicDone := exitN[iters-1][0]
	hostDone := exitH[iters-1][0]
	if nicDone >= hostDone {
		t.Fatalf("NIC barrier (%v) not faster than host barrier (%v)", nicDone, hostDone)
	}
}

func TestLANai72FasterThanLANai43(t *testing.T) {
	n := 8
	iters := 10
	_, exit43 := runBarriers(t, cluster.DefaultConfig(n), true, mcp.PE, 0, iters, nil)
	_, exit72 := runBarriers(t, cluster.LANai72Config(n), true, mcp.PE, 0, iters, nil)
	if exit72[iters-1][0] >= exit43[iters-1][0] {
		t.Fatalf("LANai 7.2 (%v) not faster than 4.3 (%v)",
			exit72[iters-1][0], exit43[iters-1][0])
	}
}

func TestSingleProcessBarrierIsLocal(t *testing.T) {
	enter, exit := runBarriers(t, cluster.DefaultConfig(1), true, mcp.PE, 0, 2, nil)
	checkBarrierSemantics(t, enter, exit)
	if exit[1][0] > 200*sim.Microsecond {
		t.Fatalf("1-process barrier took %v", exit[1][0])
	}
}

func TestFuzzyBarrierOverlapsComputation(t *testing.T) {
	// Split-phase: start barrier, compute, then wait. The overlapping
	// version must finish the combined work faster than barrier-then-
	// compute run back to back.
	n := 8
	computeChunk := 5 * sim.Microsecond
	chunks := 20

	run := func(fuzzy bool) sim.Time {
		cl := cluster.New(cluster.DefaultConfig(n))
		g := UniformGroup(n, 2)
		var done sim.Time
		cl.SpawnAll(func(p *host.Process) {
			rank := p.Rank()
			port, err := gm.Open(p, cl.MCP(rank), 2)
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			comm, err := NewComm(p, port, 64)
			if err != nil {
				t.Errorf("comm: %v", err)
				return
			}
			if fuzzy {
				pb, err := comm.StartBarrier(p, mcp.PE, g, rank, 0)
				if err != nil {
					t.Errorf("start: %v", err)
					return
				}
				for i := 0; i < chunks; i++ {
					p.Compute(computeChunk)
					pb.Test(p)
				}
				pb.Wait(p)
			} else {
				if err := comm.Barrier(p, mcp.PE, g, rank, 0); err != nil {
					t.Errorf("barrier: %v", err)
					return
				}
				for i := 0; i < chunks; i++ {
					p.Compute(computeChunk)
				}
			}
			if rank == 0 {
				done = p.Now()
			}
		})
		cl.Run()
		return done
	}

	fuzzyTime := run(true)
	serialTime := run(false)
	if fuzzyTime >= serialTime {
		t.Fatalf("fuzzy barrier (%v) not faster than serial barrier+compute (%v)",
			fuzzyTime, serialTime)
	}
}

func TestTwoLevelTopologyBarrier(t *testing.T) {
	cfg := cluster.DefaultConfig(8)
	cfg.Topology = &topo.Spec{Kind: topo.TwoSwitch, AllowExpand: true}
	enter, exit := runBarriers(t, cfg, true, mcp.PE, 0, 3, nil)
	checkBarrierSemantics(t, enter, exit)
}

func TestBarrierDataCoexistence(t *testing.T) {
	// Data messages sent before a barrier must be receivable after it:
	// barrier traffic must not disturb the reliable data channel.
	n := 4
	cl := cluster.New(cluster.DefaultConfig(n))
	g := UniformGroup(n, 2)
	var got []byte
	cl.SpawnAll(func(p *host.Process) {
		rank := p.Rank()
		port, err := gm.Open(p, cl.MCP(rank), 2)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		comm, err := NewComm(p, port, 64)
		if err != nil {
			t.Errorf("comm: %v", err)
			return
		}
		if rank == 1 {
			if err := comm.Send(p, g[0], []byte("hello")); err != nil {
				t.Errorf("send: %v", err)
			}
		}
		if err := comm.Barrier(p, mcp.PE, g, rank, 0); err != nil {
			t.Errorf("barrier: %v", err)
			return
		}
		if rank == 0 {
			data, err := comm.RecvFrom(p, g[1])
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			got = data
		}
	})
	cl.Run()
	if string(got) != "hello" {
		t.Fatalf("data across barrier = %q", got)
	}
}
