package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"gmsim/internal/cluster"
	"gmsim/internal/gm"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/sim"
)

func TestEncodeDecodeInt64s(t *testing.T) {
	vals := []int64{0, 1, -1, 1 << 40, -(1 << 40)}
	got := DecodeInt64s(EncodeInt64s(vals))
	if len(got) != len(vals) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("roundtrip[%d] = %d, want %d", i, got[i], vals[i])
		}
	}
}

// runCollective executes one collective on n nodes and returns per-rank
// results.
func runCollective(t *testing.T, n, dim int, nic bool, op mcp.CollOp, rop mcp.ReduceOp,
	values func(rank int) []byte, stagger func(rank int) sim.Time) [][]byte {
	t.Helper()
	cl := cluster.New(cluster.DefaultConfig(n))
	g := UniformGroup(n, 2)
	results := make([][]byte, n)
	cl.SpawnAll(func(p *host.Process) {
		rank := p.Rank()
		port, err := gm.Open(p, cl.MCP(rank), 2)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		comm, err := NewComm(p, port, 4*n+16)
		if err != nil {
			t.Errorf("comm: %v", err)
			return
		}
		if stagger != nil {
			p.Compute(stagger(rank))
		}
		res, err := comm.Collective(p, nic, op, rop, g, rank, dim, values(rank))
		if err != nil {
			t.Errorf("rank %d collective: %v", rank, err)
			return
		}
		results[rank] = res
	})
	cl.Run()
	return results
}

func rootOnly(data []byte) func(int) []byte {
	return func(rank int) []byte {
		if rank == 0 {
			return data
		}
		return nil
	}
}

func TestNICBroadcastDeliversPayload(t *testing.T) {
	payload := []byte("broadcast-me")
	for _, n := range []int{2, 4, 8} {
		for _, dim := range []int{1, 2} {
			if dim > n-1 {
				continue
			}
			res := runCollective(t, n, dim, true, mcp.Broadcast, 0, rootOnly(payload), nil)
			for rank, r := range res {
				if !bytes.Equal(r, payload) {
					t.Fatalf("n=%d dim=%d rank %d got %q", n, dim, rank, r)
				}
			}
		}
	}
}

func TestHostBroadcastDeliversPayload(t *testing.T) {
	payload := []byte("host-bcast")
	res := runCollective(t, 8, 2, false, mcp.Broadcast, 0, rootOnly(payload), nil)
	for rank, r := range res {
		if !bytes.Equal(r, payload) {
			t.Fatalf("rank %d got %q", rank, r)
		}
	}
}

func TestNICReduceSum(t *testing.T) {
	n := 8
	values := func(rank int) []byte { return EncodeInt64s([]int64{int64(rank + 1), 10}) }
	res := runCollective(t, n, 2, true, mcp.Reduce, mcp.OpSum, values, nil)
	got := DecodeInt64s(res[0])
	if got[0] != 36 || got[1] != 80 { // 1+..+8 = 36; 10×8 = 80
		t.Fatalf("reduce sum = %v", got)
	}
	for rank := 1; rank < n; rank++ {
		if len(res[rank]) != 0 {
			t.Fatalf("non-root rank %d got data %v", rank, res[rank])
		}
	}
}

func TestNICReduceMinMax(t *testing.T) {
	values := func(rank int) []byte { return EncodeInt64s([]int64{int64(rank), -int64(rank)}) }
	res := runCollective(t, 4, 3, true, mcp.Reduce, mcp.OpMax, values, nil)
	got := DecodeInt64s(res[0])
	if got[0] != 3 || got[1] != 0 {
		t.Fatalf("max = %v", got)
	}
	res = runCollective(t, 4, 3, true, mcp.Reduce, mcp.OpMin, values, nil)
	got = DecodeInt64s(res[0])
	if got[0] != 0 || got[1] != -3 {
		t.Fatalf("min = %v", got)
	}
}

func TestNICReduceBitOps(t *testing.T) {
	values := func(rank int) []byte { return EncodeInt64s([]int64{1 << rank}) }
	res := runCollective(t, 4, 3, true, mcp.Reduce, mcp.OpBOr, values, nil)
	if DecodeInt64s(res[0])[0] != 0xF {
		t.Fatalf("bor = %x", DecodeInt64s(res[0])[0])
	}
	all := func(int) []byte { return EncodeInt64s([]int64{0b1110}) }
	res = runCollective(t, 4, 3, true, mcp.Reduce, mcp.OpBAnd, all, nil)
	if DecodeInt64s(res[0])[0] != 0b1110 {
		t.Fatalf("band = %b", DecodeInt64s(res[0])[0])
	}
}

func TestNICAllReduceEveryoneGetsResult(t *testing.T) {
	n := 8
	values := func(rank int) []byte { return EncodeInt64s([]int64{int64(rank)}) }
	res := runCollective(t, n, 2, true, mcp.AllReduce, mcp.OpSum, values, nil)
	for rank := 0; rank < n; rank++ {
		got := DecodeInt64s(res[rank])
		if got[0] != 28 { // 0+..+7
			t.Fatalf("rank %d allreduce = %v", rank, got)
		}
	}
}

// TestHostCollectivesMatchNIC: the host tree walk delivers, at every rank,
// the bytes the firmware's delivers — every operation, every tree shape from
// a chain to a 3-ary tree.
func TestHostCollectivesMatchNIC(t *testing.T) {
	const n = 8
	values := func(rank int) []byte { return EncodeInt64s([]int64{int64(rank * rank), int64(-rank)}) }
	for _, op := range []mcp.CollOp{mcp.Broadcast, mcp.Reduce, mcp.AllReduce, mcp.AllGather} {
		for dim := 1; dim <= 3; dim++ {
			nicRes := runCollective(t, n, dim, true, op, mcp.OpSum, values, nil)
			hostRes := runCollective(t, n, dim, false, op, mcp.OpSum, values, nil)
			if len(nicRes[0]) == 0 {
				t.Errorf("%v dim=%d: rank 0 received nothing", op, dim)
			}
			for rank := 0; rank < n; rank++ {
				if !bytes.Equal(nicRes[rank], hostRes[rank]) {
					t.Errorf("%v dim=%d rank %d: NIC %v vs host %v", op, dim, rank,
						DecodeInt64s(nicRes[rank]), DecodeInt64s(hostRes[rank]))
				}
			}
		}
	}
}

func TestCollectiveWithStaggeredArrival(t *testing.T) {
	stagger := func(rank int) sim.Time { return sim.Time(rank*37) * sim.Microsecond }
	values := func(rank int) []byte { return EncodeInt64s([]int64{1}) }
	res := runCollective(t, 8, 3, true, mcp.AllReduce, mcp.OpSum, values, stagger)
	for rank, r := range res {
		if DecodeInt64s(r)[0] != 8 {
			t.Fatalf("rank %d = %v", rank, DecodeInt64s(r))
		}
	}
}

func TestConsecutiveCollectives(t *testing.T) {
	// Several allreduces back to back: record/drain machinery must keep
	// rounds separate.
	n := 4
	cl := cluster.New(cluster.DefaultConfig(n))
	g := UniformGroup(n, 2)
	bad := false
	cl.SpawnAll(func(p *host.Process) {
		rank := p.Rank()
		port, _ := gm.Open(p, cl.MCP(rank), 2)
		comm, _ := NewComm(p, port, 32)
		for round := 0; round < 5; round++ {
			res, err := comm.NICAllReduce(p, g, rank, 2, mcp.OpSum,
				EncodeInt64s([]int64{int64(round)}))
			if err != nil {
				t.Errorf("round %d: %v", round, err)
				bad = true
				return
			}
			if DecodeInt64s(res)[0] != int64(round*n) {
				t.Errorf("round %d rank %d = %v, want %d", round, rank, DecodeInt64s(res), round*n)
				bad = true
				return
			}
		}
	})
	cl.Run()
	if bad {
		t.FailNow()
	}
}

func TestNICCollectiveFasterThanHost(t *testing.T) {
	// The Section 8 hypothesis: NIC-level collectives beat host-level
	// ones for the same reason barriers do.
	n := 8
	measure := func(nic bool) sim.Time {
		cl := cluster.New(cluster.DefaultConfig(n))
		g := UniformGroup(n, 2)
		var done sim.Time
		cl.SpawnAll(func(p *host.Process) {
			rank := p.Rank()
			port, _ := gm.Open(p, cl.MCP(rank), 2)
			comm, _ := NewComm(p, port, 64)
			for i := 0; i < 10; i++ {
				if _, err := comm.Collective(p, nic, mcp.AllReduce, mcp.OpSum, g, rank, 2, EncodeInt64s([]int64{1})); err != nil {
					t.Errorf("allreduce: %v", err)
					return
				}
			}
			if rank == 0 {
				done = p.Now()
			}
		})
		cl.Run()
		return done
	}
	nicT, hostT := measure(true), measure(false)
	if nicT >= hostT {
		t.Fatalf("NIC allreduce (%v) not faster than host (%v)", nicT, hostT)
	}
}

// TestBroadcastRootNeedsData: a broadcast root with no data is refused with
// the same error at both levels, before anything is posted or sent — so the
// Comm still runs a real broadcast afterwards. (The NIC level used to post
// the empty payload and have every rank "succeed" with nothing.)
func TestBroadcastRootNeedsData(t *testing.T) {
	const n = 4
	for _, nic := range []bool{true, false} {
		cl := cluster.New(cluster.DefaultConfig(n))
		g := UniformGroup(n, 2)
		var rootErr error
		results := make([][]byte, n)
		cl.SpawnAll(func(p *host.Process) {
			rank := p.Rank()
			port, _ := gm.Open(p, cl.MCP(rank), 2)
			comm, _ := NewComm(p, port, 64)
			if rank == 0 {
				_, rootErr = comm.Collective(p, nic, mcp.Broadcast, 0, g, 0, 2, nil)
			}
			out, err := comm.Collective(p, nic, mcp.Broadcast, 0, g, rank, 2, []byte("after"))
			if err != nil {
				t.Errorf("nic=%v rank %d: broadcast after the refused one: %v", nic, rank, err)
			}
			results[rank] = out
		})
		cl.Run()
		if rootErr == nil || rootErr.Error() != "core: broadcast root needs data" {
			t.Errorf("nic=%v: root without data got %v", nic, rootErr)
		}
		for rank, r := range results {
			if string(r) != "after" {
				t.Errorf("nic=%v rank %d got %q", nic, rank, r)
			}
		}
	}
}

func TestCollectiveBadDimErrors(t *testing.T) {
	cl := cluster.New(cluster.DefaultConfig(2))
	g := UniformGroup(2, 2)
	cl.SpawnAll(func(p *host.Process) {
		rank := p.Rank()
		port, _ := gm.Open(p, cl.MCP(rank), 2)
		comm, _ := NewComm(p, port, 8)
		if _, err := comm.Collective(p, true, mcp.Broadcast, 0, g, rank, 0, []byte("x")); err == nil {
			t.Error("dim 0 should error")
		}
	})
	cl.Run()
}

// Property: NIC allreduce(sum) over random vectors equals the element-wise
// sum computed directly, for random group sizes and dimensions.
func TestPropertyAllReduceSum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		dim := 1 + rng.Intn(n-1)
		elems := 1 + rng.Intn(4)
		vals := make([][]int64, n)
		want := make([]int64, elems)
		for r := 0; r < n; r++ {
			vals[r] = make([]int64, elems)
			for e := 0; e < elems; e++ {
				vals[r][e] = int64(rng.Intn(1000) - 500)
				want[e] += vals[r][e]
			}
		}
		res := runCollective(nil2T(), n, dim, true, mcp.AllReduce, mcp.OpSum,
			func(rank int) []byte { return EncodeInt64s(vals[rank]) }, nil)
		for r := 0; r < n; r++ {
			got := DecodeInt64s(res[r])
			for e := 0; e < elems; e++ {
				if got[e] != want[e] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// nil2T adapts property functions that reuse the test helper.
func nil2T() *testing.T { return new(testing.T) }

func TestNICAllGather(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		for _, dim := range []int{1, 3} {
			if dim > n-1 {
				continue
			}
			cl := cluster.New(cluster.DefaultConfig(n))
			g := UniformGroup(n, 2)
			results := make([][]byte, n)
			cl.SpawnAll(func(p *host.Process) {
				rank := p.Rank()
				port, _ := gm.Open(p, cl.MCP(rank), 2)
				comm, _ := NewComm(p, port, 64)
				block := EncodeInt64s([]int64{int64(rank * 100)})
				out, err := comm.Collective(p, true, mcp.AllGather, 0, g, rank, dim, block)
				if err != nil {
					t.Errorf("allgather: %v", err)
					return
				}
				results[rank] = out
			})
			cl.Run()
			for rank := 0; rank < n; rank++ {
				got := DecodeInt64s(results[rank])
				if len(got) != n {
					t.Fatalf("n=%d dim=%d rank %d: %d blocks", n, dim, rank, len(got))
				}
				for r := 0; r < n; r++ {
					if got[r] != int64(r*100) {
						t.Fatalf("n=%d dim=%d rank %d block %d = %d", n, dim, rank, r, got[r])
					}
				}
			}
		}
	}
}

func TestHostAllGatherMatchesNIC(t *testing.T) {
	n := 8
	run := func(nic bool) [][]byte {
		cl := cluster.New(cluster.DefaultConfig(n))
		g := UniformGroup(n, 2)
		results := make([][]byte, n)
		cl.SpawnAll(func(p *host.Process) {
			rank := p.Rank()
			port, _ := gm.Open(p, cl.MCP(rank), 2)
			comm, _ := NewComm(p, port, 64)
			block := EncodeInt64s([]int64{int64(rank), int64(-rank)})
			out, err := comm.Collective(p, nic, mcp.AllGather, 0, g, rank, 2, block)
			if err != nil {
				t.Errorf("allgather: %v", err)
				return
			}
			results[rank] = out
		})
		cl.Run()
		return results
	}
	nicRes, hostRes := run(true), run(false)
	for rank := 0; rank < n; rank++ {
		if !bytes.Equal(nicRes[rank], hostRes[rank]) {
			t.Fatalf("rank %d: NIC %v vs host %v", rank, nicRes[rank], hostRes[rank])
		}
	}
}

func TestAllGatherStaggered(t *testing.T) {
	n := 8
	cl := cluster.New(cluster.DefaultConfig(n))
	g := UniformGroup(n, 2)
	bad := false
	cl.SpawnAll(func(p *host.Process) {
		rank := p.Rank()
		port, _ := gm.Open(p, cl.MCP(rank), 2)
		comm, _ := NewComm(p, port, 64)
		p.Compute(sim.Time((n-rank)*41) * sim.Microsecond)
		out, err := comm.Collective(p, true, mcp.AllGather, 0, g, rank, 2, EncodeInt64s([]int64{int64(rank)}))
		if err != nil {
			t.Errorf("allgather: %v", err)
			bad = true
			return
		}
		for r, v := range DecodeInt64s(out) {
			if v != int64(r) {
				t.Errorf("rank %d block %d = %d", rank, r, v)
				bad = true
				return
			}
		}
	})
	cl.Run()
	if bad {
		t.FailNow()
	}
}

// TestAllGatherEmptyBlockRejected: an empty block is refused at both levels
// before anything is posted or sent — the same error on every rank, no panic
// out of the event loop, no rank left waiting for a broadcast — and the Comm
// is still good for a real allgather afterwards.
func TestAllGatherEmptyBlockRejected(t *testing.T) {
	const n = 4
	for _, level := range []struct {
		name string
		nic  bool
	}{{"NIC", true}, {"host", false}} {
		cl := cluster.New(cluster.DefaultConfig(n))
		g := UniformGroup(n, 2)
		errs := make([]string, n)
		cl.SpawnAll(func(p *host.Process) {
			rank := p.Rank()
			port, _ := gm.Open(p, cl.MCP(rank), 2)
			comm, _ := NewComm(p, port, 64)
			if _, err := comm.Collective(p, level.nic, mcp.AllGather, 0, g, rank, 2, []byte{}); err != nil {
				errs[rank] = err.Error()
			}
			out, err := comm.Collective(p, level.nic, mcp.AllGather, 0, g, rank, 2, []byte{byte(rank)})
			if err != nil || !bytes.Equal(out, []byte{0, 1, 2, 3}) {
				t.Errorf("%s rank %d: allgather after the rejected one = %v, %v", level.name, rank, out, err)
			}
		})
		cl.Run()
		for rank, e := range errs {
			if e == "" || e != errs[0] {
				t.Errorf("%s rank %d: empty block error %q, rank 0 got %q", level.name, rank, e, errs[0])
			}
		}
	}
}
