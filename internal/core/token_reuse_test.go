package core

import (
	"testing"

	"gmsim/internal/cluster"
	"gmsim/internal/gm"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/sim"
)

// A Comm posts one barrier token again and again. These tests cover the two
// places where "this token" must keep meaning "this barrier": a second
// StartBarrier while the NIC still owns the token, and what the firmware
// remembers of a finished GB barrier once the token describes the next one.

// pendingBarrierDoneAt runs a two-rank PE barrier whose rank 1 arrives 100 µs
// late, and returns the instant rank 0's barrier completes. With doubleStart
// rank 0 calls StartBarrier a second time while the first is pending.
func pendingBarrierDoneAt(t *testing.T, doubleStart bool) sim.Time {
	t.Helper()
	var doneAt sim.Time
	commPair(t,
		func(p *host.Process, c *Comm, g Group) {
			pb, err := c.StartBarrier(p, mcp.PE, g, 0, 0)
			if err != nil {
				t.Errorf("start: %v", err)
				return
			}
			if doubleStart {
				if _, err := c.StartBarrier(p, mcp.PE, g, 0, 0); err == nil {
					t.Error("second StartBarrier with one pending was accepted")
				}
			}
			pb.Wait(p)
			doneAt = p.Now()
			// The token is the Comm's again: the next barrier goes through.
			if err := c.Barrier(p, mcp.PE, g, 0, 0); err != nil {
				t.Errorf("barrier after the refused start: %v", err)
			}
		},
		func(p *host.Process, c *Comm, g Group) {
			p.Compute(100 * sim.Microsecond)
			for i := 0; i < 2; i++ {
				if err := c.Barrier(p, mcp.PE, g, 1, 0); err != nil {
					t.Errorf("rank 1 barrier %d: %v", i, err)
				}
			}
		})
	return doneAt
}

// TestStartBarrierWhilePendingIsRefusedUntouched: the refusal comes before
// the token is refilled and before anything is charged or posted, so the
// barrier in flight completes at the instant it would have without the call.
func TestStartBarrierWhilePendingIsRefusedUntouched(t *testing.T) {
	alone := pendingBarrierDoneAt(t, false)
	disturbed := pendingBarrierDoneAt(t, true)
	if alone == 0 || alone != disturbed {
		t.Fatalf("pending barrier completed at %v with a refused second start, %v without", disturbed, alone)
	}
}

// TestAlternatingGroupsKeepRejectedBroadcast: rank 0 roots a GB barrier over
// {0,1}, then one over {0,2}. Rank 1 closed its port after gathering, so the
// first barrier's broadcast is recorded there; it reopens while the second
// barrier is in flight — when the Comm's token already lists rank 2 as the
// only child. The reject must still be checked against the first barrier's
// children and the broadcast resent, once.
func TestAlternatingGroupsKeepRejectedBroadcast(t *testing.T) {
	cl := cluster.New(cluster.DefaultConfig(3))
	ep := func(n int) mcp.Endpoint { return mcp.Endpoint{Node: cl.MCP(n).Node(), Port: 2} }
	groupA, groupB := Group{ep(0), ep(1)}, Group{ep(0), ep(2)}
	open := func(p *host.Process) *Comm {
		port, err := gm.Open(p, cl.MCP(p.Rank()), 2)
		if err != nil {
			t.Fatalf("rank %d: open: %v", p.Rank(), err)
		}
		comm, err := NewComm(p, port, 8)
		if err != nil {
			t.Fatalf("rank %d: comm: %v", p.Rank(), err)
		}
		return comm
	}
	cl.Spawn(0, 0, func(p *host.Process) {
		comm := open(p)
		p.Compute(150 * sim.Microsecond) // rank 1 has gathered and closed
		for _, g := range []Group{groupA, groupB} {
			if err := comm.Barrier(p, mcp.GB, g, 0, 1); err != nil {
				t.Errorf("rank 0: %v", err)
			}
		}
	})
	cl.Spawn(1, 1, func(p *host.Process) {
		comm := open(p)
		if _, err := comm.StartBarrier(p, mcp.GB, groupA, 1, 1); err != nil {
			t.Errorf("rank 1: %v", err)
		}
		p.Compute(100 * sim.Microsecond) // the gather is out
		if err := comm.Port().Close(); err != nil {
			t.Errorf("rank 1: close: %v", err)
		}
		p.Compute(300 * sim.Microsecond) // rank 0 is inside its second barrier
		open(p)
	})
	cl.Spawn(2, 2, func(p *host.Process) {
		comm := open(p)
		p.Compute(800 * sim.Microsecond)
		if err := comm.Barrier(p, mcp.GB, groupB, 1, 1); err != nil {
			t.Errorf("rank 2: %v", err)
		}
	})
	cl.Run()

	root, child := cl.MCP(0).Stats(), cl.MCP(1).Stats()
	if child.ClosedPortRecs != 1 || child.BarrierRejects != 1 {
		t.Fatalf("scenario did not happen: rank 1 recorded %d messages for its closed port, rejected %d",
			child.ClosedPortRecs, child.BarrierRejects)
	}
	if root.BarrierCompleted != 2 {
		t.Errorf("root completed %d barriers, want 2", root.BarrierCompleted)
	}
	if root.BarrierResends != 1 {
		t.Errorf("root resent %d rejected broadcasts, want 1", root.BarrierResends)
	}
	if e := root.ProtocolErrors + child.ProtocolErrors; e != 0 {
		t.Errorf("%d protocol errors", e)
	}
}
