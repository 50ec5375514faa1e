package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"gmsim/internal/cluster"
	"gmsim/internal/gm"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/sim"
)

// commPair spawns two processes with Comms and runs body0/body1.
func commPair(t *testing.T, body0, body1 func(p *host.Process, comm *Comm, g Group)) {
	t.Helper()
	cl := cluster.New(cluster.DefaultConfig(2))
	g := UniformGroup(2, 2)
	bodies := []func(p *host.Process, comm *Comm, g Group){body0, body1}
	cl.SpawnAll(func(p *host.Process) {
		port, err := gm.Open(p, cl.MCP(p.Rank()), 2)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		comm, err := NewComm(p, port, 32)
		if err != nil {
			t.Errorf("comm: %v", err)
			return
		}
		bodies[p.Rank()](p, comm, g)
	})
	cl.Run()
}

func TestCommSendRecv(t *testing.T) {
	commPair(t,
		func(p *host.Process, c *Comm, g Group) {
			data, err := c.RecvFrom(p, g[1])
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			if !bytes.Equal(data, []byte("payload")) {
				t.Errorf("data = %q", data)
			}
		},
		func(p *host.Process, c *Comm, g Group) {
			if err := c.Send(p, g[0], []byte("payload")); err != nil {
				t.Errorf("send: %v", err)
			}
		})
}

// TestCommSendTokenExhaustion pins which Send failure Comm.Send retries:
// with all 16 send tokens un-acked the port reports gm.ErrNoSendTokens and
// Comm.Send drains a completion and posts the 17th message; a closed port
// is any other failure and comes straight back.
func TestCommSendTokenExhaustion(t *testing.T) {
	const sends = 17
	commPair(t,
		func(p *host.Process, c *Comm, g Group) {
			for i := 0; i < sends; i++ {
				data, err := c.RecvFrom(p, g[1])
				if err != nil || len(data) != 1 || data[0] != byte(i) {
					t.Errorf("recv %d: %v, %v", i, data, err)
					return
				}
			}
		},
		func(p *host.Process, c *Comm, g Group) {
			for i := 0; i < sends-1; i++ {
				if err := c.Port().Send(p, g[0], []byte{byte(i)}); err != nil {
					t.Errorf("send %d: %v", i, err)
					return
				}
			}
			if err := c.Port().Send(p, g[0], []byte{sends - 1}); !errors.Is(err, gm.ErrNoSendTokens) {
				t.Errorf("raw 17th send: %v, want gm.ErrNoSendTokens", err)
			}
			before := p.Now()
			if err := c.Send(p, g[0], []byte{sends - 1}); err != nil {
				t.Errorf("Comm.Send with no token free: %v", err)
			}
			if p.Now() == before {
				t.Error("Comm.Send posted the 17th message without waiting for a token")
			}

			p.Compute(sim.Millisecond) // let the NIC take the last doorbell
			if err := c.Port().Close(); err != nil {
				t.Errorf("close: %v", err)
			}
			before = p.Now()
			err := c.Send(p, g[0], []byte{0xFF})
			if err == nil || errors.Is(err, gm.ErrNoSendTokens) {
				t.Errorf("Comm.Send on a closed port: %v, want the port's error", err)
			}
			if p.Now() != before {
				t.Errorf("Comm.Send on a closed port blocked for %v", p.Now()-before)
			}
		})
}

func TestCommRecvFromSpecificSourceStashesOthers(t *testing.T) {
	// Three nodes: rank 0 waits for rank 2 first even though rank 1's
	// message arrives earlier; rank 1's message is stashed and consumed
	// afterwards.
	cl := cluster.New(cluster.DefaultConfig(3))
	g := UniformGroup(3, 2)
	var order []int
	cl.SpawnAll(func(p *host.Process) {
		port, err := gm.Open(p, cl.MCP(p.Rank()), 2)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		comm, err := NewComm(p, port, 32)
		if err != nil {
			t.Errorf("comm: %v", err)
			return
		}
		switch p.Rank() {
		case 0:
			if _, err := comm.RecvFrom(p, g[2]); err != nil {
				t.Errorf("recv 2: %v", err)
				return
			}
			order = append(order, 2)
			if _, err := comm.RecvFrom(p, g[1]); err != nil {
				t.Errorf("recv 1: %v", err)
				return
			}
			order = append(order, 1)
		case 1:
			comm.Send(p, g[0], []byte{1})
		case 2:
			p.Compute(200 * sim.Microsecond) // arrive late
			comm.Send(p, g[0], []byte{2})
		}
	})
	cl.Run()
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("order = %v, want [2 1]", order)
	}
}

func TestCommFIFOPerSource(t *testing.T) {
	commPair(t,
		func(p *host.Process, c *Comm, g Group) {
			for i := 0; i < 8; i++ {
				data, err := c.RecvFrom(p, g[1])
				if err != nil {
					t.Errorf("recv: %v", err)
					return
				}
				if data[0] != byte(i) {
					t.Errorf("message %d = %d, FIFO violated", i, data[0])
					return
				}
			}
		},
		func(p *host.Process, c *Comm, g Group) {
			for i := 0; i < 8; i++ {
				if err := c.Send(p, g[1-1], []byte{byte(i)}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		})
}

func TestStartBarrierTestPolling(t *testing.T) {
	// Test() must not block and must eventually observe completion.
	cl := cluster.New(cluster.DefaultConfig(4))
	g := UniformGroup(4, 2)
	polls := make([]int, 4)
	cl.SpawnAll(func(p *host.Process) {
		rank := p.Rank()
		port, _ := gm.Open(p, cl.MCP(rank), 2)
		comm, _ := NewComm(p, port, 32)
		pb, err := comm.StartBarrier(p, mcp.PE, g, rank, 0)
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		for !pb.Test(p) {
			polls[rank]++
			p.Compute(2 * sim.Microsecond)
		}
		// Once done, Test stays done.
		if !pb.Test(p) {
			t.Error("Test regressed to false")
		}
	})
	cl.Run()
	for rank, n := range polls {
		if n == 0 {
			t.Fatalf("rank %d: barrier completed with zero polls (too fast?)", rank)
		}
	}
}

func TestPendingBarrierWaitAfterTest(t *testing.T) {
	cl := cluster.New(cluster.DefaultConfig(2))
	g := UniformGroup(2, 2)
	cl.SpawnAll(func(p *host.Process) {
		rank := p.Rank()
		port, _ := gm.Open(p, cl.MCP(rank), 2)
		comm, _ := NewComm(p, port, 32)
		pb, err := comm.StartBarrier(p, mcp.GB, g, rank, 1)
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		pb.Test(p) // may or may not be done
		pb.Wait(p) // must complete regardless
	})
	cl.Run()
}

func TestHostBarrierUnknownAlg(t *testing.T) {
	commPair(t,
		func(p *host.Process, c *Comm, g Group) {
			if err := c.HostBarrier(p, mcp.BarrierAlg(9), g, 0, 0); err == nil {
				t.Error("unknown algorithm should error")
			}
		},
		func(p *host.Process, c *Comm, g Group) {})
}

func TestBarrierBadRankErrors(t *testing.T) {
	commPair(t,
		func(p *host.Process, c *Comm, g Group) {
			if err := c.Barrier(p, mcp.PE, g, 5, 0); err == nil {
				t.Error("bad rank should error")
			}
			if err := c.HostBarrierPE(p, g, -1); err == nil {
				t.Error("bad host rank should error")
			}
			if err := c.HostBarrierGB(p, g, 0, 0); err == nil {
				t.Error("bad dim should error")
			}
		},
		func(p *host.Process, c *Comm, g Group) {})
}

func TestMixedBarrierAndData(t *testing.T) {
	// Interleave data transfers with NIC barriers; both must survive the
	// shared event stream.
	cl := cluster.New(cluster.DefaultConfig(2))
	g := UniformGroup(2, 2)
	var received int
	cl.SpawnAll(func(p *host.Process) {
		rank := p.Rank()
		port, _ := gm.Open(p, cl.MCP(rank), 2)
		comm, _ := NewComm(p, port, 64)
		for i := 0; i < 5; i++ {
			if rank == 0 {
				if err := comm.Send(p, g[1], []byte{byte(i)}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
			if err := comm.Barrier(p, mcp.PE, g, rank, 0); err != nil {
				t.Errorf("barrier: %v", err)
				return
			}
			if rank == 1 {
				data, err := comm.RecvFrom(p, g[0])
				if err != nil {
					t.Errorf("recv: %v", err)
					return
				}
				if data[0] != byte(i) {
					t.Errorf("round %d got %d", i, data[0])
					return
				}
				received++
			}
		}
	})
	cl.Run()
	if received != 5 {
		t.Fatalf("received = %d", received)
	}
}

// Property: for random group sizes and random per-rank staggers, the
// barrier property holds (no exit before last enter) for both algorithms
// at both levels.
func TestPropertyBarrierSemanticsRandomized(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9) // 2..10
		nicBased := rng.Intn(2) == 0
		alg := mcp.PE
		dim := 0
		if rng.Intn(2) == 0 {
			alg = mcp.GB
			dim = 1 + rng.Intn(n-1)
		}
		staggers := make([]sim.Time, n)
		for i := range staggers {
			staggers[i] = sim.Time(rng.Intn(100)) * sim.Microsecond
		}
		cl := cluster.New(cluster.DefaultConfig(n))
		g := UniformGroup(n, 2)
		enter := make([]sim.Time, n)
		exit := make([]sim.Time, n)
		ok := true
		cl.SpawnAll(func(p *host.Process) {
			rank := p.Rank()
			port, err := gm.Open(p, cl.MCP(rank), 2)
			if err != nil {
				ok = false
				return
			}
			comm, err := NewComm(p, port, 4*n+16)
			if err != nil {
				ok = false
				return
			}
			p.Compute(staggers[rank])
			enter[rank] = p.Now()
			if nicBased {
				err = comm.Barrier(p, alg, g, rank, dim)
			} else {
				err = comm.HostBarrier(p, alg, g, rank, dim)
			}
			if err != nil {
				ok = false
				return
			}
			exit[rank] = p.Now()
		})
		cl.Run()
		if !ok {
			return false
		}
		var maxEnter, minExit sim.Time
		minExit = 1 << 62
		for r := 0; r < n; r++ {
			if enter[r] > maxEnter {
				maxEnter = enter[r]
			}
			if exit[r] < minExit {
				minExit = exit[r]
			}
		}
		return minExit >= maxEnter
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCommPortAccessor(t *testing.T) {
	commPair(t,
		func(p *host.Process, c *Comm, g Group) {
			if c.Port() == nil || c.Port().Num() != 2 {
				t.Error("Port accessor wrong")
			}
		},
		func(p *host.Process, c *Comm, g Group) {})
}
