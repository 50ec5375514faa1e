package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gmsim/internal/cluster"
	"gmsim/internal/gm"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/network"
	"gmsim/internal/sim"
)

// TestStressMixedTraffic interleaves data messages, NIC barriers, host
// barriers and NIC collectives across random group sizes, asserting every
// operation completes with correct results and the firmware reports no
// protocol errors.
func TestStressMixedTraffic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		rounds := 3 + rng.Intn(5)
		// Precompute a per-round random plan shared by all ranks.
		type roundPlan struct {
			kind    int // 0 data ring, 1 NIC barrier, 2 host barrier, 3 allreduce, 4 allgather
			stagger []sim.Time
			dim     int
		}
		plans := make([]roundPlan, rounds)
		for i := range plans {
			plans[i].kind = rng.Intn(5)
			plans[i].dim = 1 + rng.Intn(n-1)
			plans[i].stagger = make([]sim.Time, n)
			for r := range plans[i].stagger {
				plans[i].stagger[r] = sim.Time(rng.Intn(40)) * sim.Microsecond
			}
		}
		cl := cluster.New(cluster.DefaultConfig(n))
		g := UniformGroup(n, 2)
		ok := true
		fail := func() { ok = false }
		cl.SpawnAll(func(p *host.Process) {
			rank := p.Rank()
			port, err := gm.Open(p, cl.MCP(rank), 2)
			if err != nil {
				fail()
				return
			}
			comm, err := NewComm(p, port, 8*n+16)
			if err != nil {
				fail()
				return
			}
			for i, plan := range plans {
				p.Compute(plan.stagger[rank])
				switch plan.kind {
				case 0:
					// Ring: send to the right, receive from the left.
					right := g[(rank+1)%n]
					left := g[(rank-1+n)%n]
					if err := comm.Send(p, right, []byte{byte(i), byte(rank)}); err != nil {
						fail()
						return
					}
					data, err := comm.RecvFrom(p, left)
					if err != nil || data[0] != byte(i) || data[1] != byte((rank-1+n)%n) {
						fail()
						return
					}
				case 1:
					if err := comm.Barrier(p, mcp.PE, g, rank, 0); err != nil {
						fail()
						return
					}
				case 2:
					if err := comm.HostBarrierGB(p, g, rank, plan.dim); err != nil {
						fail()
						return
					}
				case 3:
					out, err := comm.Collective(p, true, mcp.AllReduce, mcp.OpSum, g, rank, plan.dim,
						EncodeInt64s([]int64{int64(i + 1)}))
					if err != nil || DecodeInt64s(out)[0] != int64((i+1)*n) {
						fail()
						return
					}
				case 4:
					out, err := comm.Collective(p, true, mcp.AllGather, 0, g, rank, plan.dim,
						EncodeInt64s([]int64{int64(rank)}))
					if err != nil {
						fail()
						return
					}
					for r, v := range DecodeInt64s(out) {
						if v != int64(r) {
							fail()
							return
						}
					}
				}
			}
		})
		cl.Run()
		if !ok {
			return false
		}
		for i := 0; i < n; i++ {
			if cl.MCP(i).Stats().ProtocolErrors != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// randomLoss is a network.FaultHook that drops each hop with probability rate,
// drawn from one stream per link derived from (seed, link).
type randomLoss struct {
	rate    float64
	seed    int64
	streams map[network.LinkID]*rand.Rand
}

func (l *randomLoss) OnHop(link network.LinkID, _ *network.Packet) network.Verdict {
	if l.streams[link] == nil {
		l.streams[link] = network.LinkStream(l.seed, link)
	}
	return network.Verdict{Drop: l.streams[link].Float64() < l.rate, Reason: "loss"}
}

// TestStressReliableBarriersUnderLoss runs many consecutive NIC barriers
// on a lossy fabric in reliable mode: all must complete.
func TestStressReliableBarriersUnderLoss(t *testing.T) {
	for _, seed := range []int64{1, 17, 99} {
		cfg := cluster.DefaultConfig(4)
		cfg.ReliableBarrier = true
		cl := cluster.New(cfg)
		cl.Fabric().SetFaultHook(&randomLoss{0.08, seed, make(map[network.LinkID]*rand.Rand)})
		g := UniformGroup(4, 2)
		done := make([]int, 4)
		cl.SpawnAll(func(p *host.Process) {
			rank := p.Rank()
			port, _ := gm.Open(p, cl.MCP(rank), 2)
			comm, _ := NewComm(p, port, 48)
			for i := 0; i < 20; i++ {
				if err := comm.Barrier(p, mcp.PE, g, rank, 0); err != nil {
					t.Errorf("seed %d rank %d barrier %d: %v", seed, rank, i, err)
					return
				}
				done[rank]++
			}
		})
		cl.Run()
		for rank, d := range done {
			if d != 20 {
				t.Fatalf("seed %d rank %d completed %d/20 barriers", seed, rank, d)
			}
		}
	}
}

// TestStressDeterminism runs an identical mixed workload twice and asserts
// bit-identical completion times — the determinism guarantee the whole
// calibration methodology rests on.
func TestStressDeterminism(t *testing.T) {
	runOnce := func() []sim.Time {
		n := 6
		cl := cluster.New(cluster.DefaultConfig(n))
		g := UniformGroup(n, 2)
		finish := make([]sim.Time, n)
		cl.SpawnAll(func(p *host.Process) {
			rank := p.Rank()
			port, _ := gm.Open(p, cl.MCP(rank), 2)
			comm, _ := NewComm(p, port, 48)
			for i := 0; i < 5; i++ {
				comm.Barrier(p, mcp.PE, g, rank, 0)
				comm.Collective(p, true, mcp.AllReduce, mcp.OpSum, g, rank, 2, EncodeInt64s([]int64{1}))
				if rank%2 == 0 && rank+1 < n {
					comm.Send(p, g[rank+1], []byte{byte(i)})
				} else if rank%2 == 1 {
					comm.RecvFrom(p, g[rank-1])
				}
			}
			finish[rank] = p.Now()
		})
		cl.Run()
		return finish
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterminism: rank %d finished at %v vs %v", i, a[i], b[i])
		}
	}
}
