package mpi

import (
	"bytes"
	"testing"

	"gmsim/internal/cluster"
	"gmsim/internal/core"
	"gmsim/internal/gm"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/sim"
)

// runWorld spawns an n-rank MPI world and runs body on every rank.
func runWorld(t *testing.T, n int, cfg Config, body func(p *host.Process, w *World)) {
	t.Helper()
	cl := cluster.New(cluster.DefaultConfig(n))
	g := core.UniformGroup(n, 2)
	cl.SpawnAll(func(p *host.Process) {
		rank := p.Rank()
		port, err := gm.Open(p, cl.MCP(rank), 2)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		comm, err := core.NewComm(p, port, 4*n+16)
		if err != nil {
			t.Errorf("comm: %v", err)
			return
		}
		w, err := NewWorld(comm, g, rank, cfg)
		if err != nil {
			t.Errorf("world: %v", err)
			return
		}
		body(p, w)
	})
	cl.Run()
}

func TestSendRecvTagged(t *testing.T) {
	runWorld(t, 2, DefaultConfig(), func(p *host.Process, w *World) {
		if w.rank == 0 {
			if err := w.Send(p, 1, 42, []byte("tagged")); err != nil {
				t.Errorf("send: %v", err)
			}
		} else {
			m, err := w.Recv(p, 0, 42)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			if m.Source != 0 || m.Tag != 42 || !bytes.Equal(m.Data, []byte("tagged")) {
				t.Errorf("message = %+v", m)
			}
		}
	})
}

func TestRecvTagMatchingOutOfOrder(t *testing.T) {
	// Rank 0 sends tag 1 then tag 2; rank 1 receives tag 2 first:
	// the unexpected queue must hold tag 1 meanwhile.
	runWorld(t, 2, DefaultConfig(), func(p *host.Process, w *World) {
		if w.rank == 0 {
			w.Send(p, 1, 1, []byte("first"))
			w.Send(p, 1, 2, []byte("second"))
		} else {
			m2, err := w.Recv(p, 0, 2)
			if err != nil || string(m2.Data) != "second" {
				t.Errorf("tag 2: %v %q", err, m2.Data)
				return
			}
			m1, err := w.Recv(p, 0, 1)
			if err != nil || string(m1.Data) != "first" {
				t.Errorf("tag 1: %v %q", err, m1.Data)
			}
		}
	})
}

func TestRecvWildcards(t *testing.T) {
	runWorld(t, 4, DefaultConfig(), func(p *host.Process, w *World) {
		if w.rank == 0 {
			seen := map[int]bool{}
			for i := 0; i < 3; i++ {
				m, err := w.Recv(p, AnySource, AnyTag)
				if err != nil {
					t.Errorf("recv: %v", err)
					return
				}
				if m.Tag != m.Source*10 {
					t.Errorf("message %+v has wrong tag", m)
				}
				seen[m.Source] = true
			}
			if len(seen) != 3 {
				t.Errorf("sources = %v", seen)
			}
		} else {
			w.Send(p, 0, w.rank*10, []byte{byte(w.rank)})
		}
	})
}

func TestSendBadRankErrors(t *testing.T) {
	runWorld(t, 2, DefaultConfig(), func(p *host.Process, w *World) {
		if w.rank == 0 {
			if err := w.Send(p, 9, 0, nil); err == nil {
				t.Error("send to bad rank should error")
			}
		}
	})
}

func TestWorldAccessorsAndErrors(t *testing.T) {
	runWorld(t, 2, DefaultConfig(), func(p *host.Process, w *World) {
		if len(w.g) != 2 {
			t.Errorf("Size = %d", len(w.g))
		}
	})
	g := core.UniformGroup(2, 2)
	if _, err := NewWorld(nil, g, 5, DefaultConfig()); err == nil {
		t.Error("bad rank should error")
	}
}

func TestMPIBarrierBothBackends(t *testing.T) {
	for _, nic := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.UseNICBarrier = nic
		enter := make([]sim.Time, 8)
		exit := make([]sim.Time, 8)
		runWorld(t, 8, cfg, func(p *host.Process, w *World) {
			p.Compute(sim.Time(w.rank) * 20 * sim.Microsecond)
			enter[w.rank] = p.Now()
			if err := w.Barrier(p); err != nil {
				t.Errorf("barrier: %v", err)
				return
			}
			exit[w.rank] = p.Now()
		})
		var maxEnter, minExit sim.Time
		minExit = 1 << 62
		for r := 0; r < 8; r++ {
			if enter[r] > maxEnter {
				maxEnter = enter[r]
			}
			if exit[r] < minExit {
				minExit = exit[r]
			}
		}
		if minExit < maxEnter {
			t.Fatalf("nic=%v: barrier property violated", nic)
		}
	}
}

func TestMPIBcastBothBackends(t *testing.T) {
	payload := []byte("mpi-bcast-data")
	for _, nic := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.UseNICCollectives = nic
		runWorld(t, 8, cfg, func(p *host.Process, w *World) {
			var in []byte
			if w.rank == 0 {
				in = payload
			}
			out, err := w.Bcast(p, in)
			if err != nil {
				t.Errorf("bcast: %v", err)
				return
			}
			if !bytes.Equal(out, payload) {
				t.Errorf("nic=%v rank %d got %q", nic, w.rank, out)
			}
		})
	}
}

func TestMPIAllreduceBothBackends(t *testing.T) {
	for _, nic := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.UseNICCollectives = nic
		runWorld(t, 8, cfg, func(p *host.Process, w *World) {
			out, err := w.Allreduce(p, mcp.OpSum, []int64{int64(w.rank), 1})
			if err != nil {
				t.Errorf("allreduce: %v", err)
				return
			}
			if out[0] != 28 || out[1] != 8 {
				t.Errorf("nic=%v rank %d = %v", nic, w.rank, out)
			}
		})
	}
}

func TestNICBarrierFasterUnderMPI(t *testing.T) {
	// The paper's Equation 3 prediction realized with a real layer:
	// the factor of improvement under MPI exceeds the raw-GM factor.
	measure := func(nic bool) float64 {
		cfg := DefaultConfig()
		cfg.UseNICBarrier = nic
		var t0, t1 sim.Time
		const iters = 30
		runWorld(t, 8, cfg, func(p *host.Process, w *World) {
			for i := 0; i < 5; i++ {
				w.Barrier(p)
			}
			if w.rank == 0 {
				t0 = p.Now()
			}
			for i := 0; i < iters; i++ {
				w.Barrier(p)
			}
			if w.rank == 0 {
				t1 = p.Now()
			}
		})
		return (t1 - t0).Micros() / iters
	}
	nicLat := measure(true)
	hostLat := measure(false)
	factor := hostLat / nicLat
	if factor < 1.8 {
		t.Fatalf("MPI-layer factor = %.2f (nic %.2f us, host %.2f us); want > raw-GM 1.68",
			factor, nicLat, hostLat)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	raw := pack(3, -7, []byte("xyz"))
	r, tag, data := unpack(raw)
	if r != 3 || tag != -7 || string(data) != "xyz" {
		t.Fatalf("roundtrip = %d %d %q", r, tag, data)
	}
}
