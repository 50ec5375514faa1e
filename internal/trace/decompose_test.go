package trace

import (
	"strings"
	"testing"

	"gmsim/internal/cluster"
	"gmsim/internal/core"
	"gmsim/internal/gm"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/phase"
	"gmsim/internal/sim"
	"gmsim/internal/topo"
)

// runFullStackBarrier runs one NIC barrier on n nodes with a full-stack
// recorder attached.
func runFullStackBarrier(t *testing.T, n int, alg mcp.BarrierAlg, dim int) (*Recorder, *cluster.Cluster) {
	return runFullStackBarrierResetAt(t, n, alg, dim, -1)
}

// runFullStackBarrierResetAt is runFullStackBarrier with the recording reset
// at simulated instant resetAt (never, when negative).
func runFullStackBarrierResetAt(t *testing.T, n int, alg mcp.BarrierAlg, dim int, resetAt sim.Time) (*Recorder, *cluster.Cluster) {
	t.Helper()
	cl := cluster.New(cluster.DefaultConfig(n))
	rec := Attach(cl)
	if resetAt >= 0 {
		cl.Sim().At(resetAt, rec.Reset)
	}
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
		if err := comm.Barrier(p, alg, g, rank, dim); err != nil {
			t.Errorf("barrier: %v", err)
		}
	})
	cl.Run()
	return rec, cl
}

// Decompose on hand-built spans: priority attribution, clipping, Idle, and
// the exact-partition invariant.
func TestDecomposeHandBuilt(t *testing.T) {
	cl := cluster.New(cluster.DefaultConfig(2))
	r := Attach(cl)
	ph := r.Phases()
	// [0,10) host-send at node 0; [5,20) firmware overlapping it; a wire
	// span [15,30) to node 1; an unrelated node-1 span [0,50).
	ph.Add(phase.Span{Start: 0, End: 10, Phase: phase.HostSend, Node: 0, Peer: -1})
	ph.Add(phase.Span{Start: 5, End: 20, Phase: phase.NICProc, Node: 0, Peer: -1})
	ph.Add(phase.Span{Start: 15, End: 30, Phase: phase.Wire, Node: 0, Peer: 1})
	ph.Add(phase.Span{Start: 0, End: 50, Phase: phase.NICProc, Node: 1, Peer: -1})

	d := r.Decompose(0, 0, 40)
	if d.CriticalSum() != d.Elapsed() || d.Elapsed() != 40 {
		t.Fatalf("partition broken: sum=%v elapsed=%v", d.CriticalSum(), d.Elapsed())
	}
	// Priority: HostSend wins [0,10), NICProc takes [10,20), Wire [20,30),
	// Idle [30,40).
	if d.Critical[phase.HostSend] != 10 || d.Critical[phase.NICProc] != 10 ||
		d.Critical[phase.Wire] != 10 || d.Idle() != 10 {
		t.Fatalf("critical = %v", d.Critical)
	}
	// Totals are cluster-wide and unclipped within the window: node 1's
	// span contributes 40 of its 50.
	if d.Totals[phase.NICProc] != 15+40 {
		t.Fatalf("NICProc total = %v, want 55", d.Totals[phase.NICProc])
	}
	if d.Spans != 4 {
		t.Fatalf("spans = %d", d.Spans)
	}

	// The window clips: decomposing [5, 15) sees only overlap.
	d2 := r.Decompose(0, 5, 15)
	if d2.CriticalSum() != 10 || d2.Critical[phase.HostSend] != 5 || d2.Critical[phase.NICProc] != 5 {
		t.Fatalf("clipped critical = %v", d2.Critical)
	}

	// Node 1's vantage: only its own span is on the critical path.
	d3 := r.Decompose(1, 0, 40)
	if d3.Critical[phase.NICProc] != 40 || d3.Idle() != 0 {
		t.Fatalf("node-1 critical = %v", d3.Critical)
	}

	// The wire span counts at its destination too.
	d4 := r.Decompose(1, 0, 60)
	if d4.Critical[phase.NICProc] != 50 || d4.Critical[phase.Wire] != 0 || d4.Idle() != 10 {
		// Wire [15,30) is shadowed by node 1's NICProc [0,50).
		t.Fatalf("node-1 wide critical = %v", d4.Critical)
	}
}

func TestDecomposeEmptyAndInverted(t *testing.T) {
	cl := cluster.New(cluster.DefaultConfig(2))
	r := Attach(cl)
	d := r.Decompose(0, 100, 100)
	if d.Elapsed() != 0 || d.CriticalSum() != 0 {
		t.Fatalf("empty window: %+v", d)
	}
	d = r.Decompose(0, 100, 50)
	if d.Elapsed() != 0 {
		t.Fatalf("inverted window: %+v", d)
	}
	// No spans at all: the whole window is Idle.
	d = r.Decompose(0, 0, 1000)
	if d.Idle() != 1000 || d.CriticalSum() != 1000 {
		t.Fatalf("span-free window: %+v", d)
	}
}

// A fabric-only recorder decomposes to all-Idle instead of panicking.
func TestDecomposeFabricOnly(t *testing.T) {
	rec, cl := runTracedBarrier(t, 4)
	end := cl.Sim().Now()
	d := rec.Decompose(0, 0, end)
	if d.Idle() != end || d.CriticalSum() != end {
		t.Fatalf("fabric-only decomposition: %+v", d)
	}
}

// The conservation invariant on a real run, plus structural expectations:
// a NIC barrier records no HostSend/HostRecv anywhere, and firmware, DMA
// and wire spans all appear.
func TestDecomposeConservationOnRealRun(t *testing.T) {
	rec, cl := runFullStackBarrier(t, 8, mcp.PE, 0)
	end := cl.Sim().Now()
	for node := 0; node < 8; node++ {
		d := rec.Decompose(node, 0, end)
		if d.CriticalSum() != d.Elapsed() {
			t.Fatalf("node %d: critical sum %v != elapsed %v", node, d.CriticalSum(), d.Elapsed())
		}
	}
	tot := rec.Phases().Totals()
	// The whole run is traced here, so HostRecv carries the one-time comm
	// setup (receive-buffer provisioning); the send data path must still be
	// untouched. The steady-state zero-HostRecv invariant is pinned by the
	// experiments conformance test over the timed window.
	if tot[phase.HostSend] != 0 {
		t.Fatalf("NIC barrier charged host send time: %v", tot)
	}
	for _, ph := range []phase.Phase{phase.HostPost, phase.HostDone, phase.NICProc, phase.DMA, phase.Wire} {
		if tot[ph] == 0 {
			t.Fatalf("no %v time recorded: %v", ph, tot)
		}
	}
	d := rec.Decompose(0, 0, end)
	if !strings.Contains(d.Table(), "NICProc") {
		t.Fatal("table missing phase rows")
	}
	if d.Critical[phase.HostPost]+d.Critical[phase.HostDone] == 0 {
		t.Fatal("host critical time zero (token post should appear)")
	}
}

// Wire spans synthesized from inject/deliver pairs must agree with the
// event-level WireLatencies reconstruction.
func TestWireSpansMatchWireLatencies(t *testing.T) {
	rec, _ := runFullStackBarrier(t, 4, mcp.PE, 0)
	var wires []phase.Span
	for _, s := range rec.Phases().Spans() {
		if s.Phase == phase.Wire {
			wires = append(wires, s)
		}
	}
	lats := rec.WireLatencies()
	if len(wires) != len(lats) {
		t.Fatalf("wire spans %d != wire latencies %d", len(wires), len(lats))
	}
	for i, w := range wires {
		if w.Start != lats[i].Inject || w.End != lats[i].Deliver {
			t.Fatalf("wire span %d = [%v,%v), latency pair [%v,%v)", i, w.Start, w.End, lats[i].Inject, lats[i].Deliver)
		}
		if int(w.Node) != int(lats[i].Src) || int(w.Peer) != int(lats[i].Dst) {
			t.Fatalf("wire span %d endpoints %d->%d, want %d->%d", i, w.Node, w.Peer, lats[i].Src, lats[i].Dst)
		}
		if !strings.HasPrefix(w.Label, "wire") {
			t.Fatalf("wire span label %q", w.Label)
		}
	}
}

// Disable must gate spans and events together, and dropped packets must
// not leak inFlight entries.
func TestAttachGatesPhases(t *testing.T) {
	cl := cluster.New(cluster.DefaultConfig(2))
	rec := Attach(cl)
	rec.Disable()
	g := core.UniformGroup(2, 2)
	cl.SpawnAll(func(p *host.Process) {
		rank := p.Rank()
		port, _ := gm.Open(p, cl.MCP(rank), 2)
		comm, _ := core.NewComm(p, port, 16)
		comm.Barrier(p, mcp.PE, g, rank, 0)
	})
	cl.Run()
	if rec.Len() != 0 || rec.Phases().Len() != 0 {
		t.Fatalf("disabled recorder captured %d events, %d spans", rec.Len(), rec.Phases().Len())
	}
	rec.Reset()
	if len(rec.inFlight) != 0 {
		t.Fatalf("inFlight retains %d entries", len(rec.inFlight))
	}
}

// A Reset while a packet is on the wire forgets the packet: its delivery
// must not add a wire span reaching back before the reset to a recording
// that claims to start there.
func TestResetMidFlightDropsInFlightPackets(t *testing.T) {
	plain, _ := runFullStackBarrier(t, 4, mcp.PE, 0)
	first := plain.WireLatencies()[0]
	resetAt := first.Inject + first.Latency()/2

	rec, cl := runFullStackBarrierResetAt(t, 4, mcp.PE, 0, resetAt)
	if rec.Phases().Len() == 0 {
		t.Fatal("nothing recorded after the reset")
	}
	for _, s := range rec.Phases().Spans() {
		if s.Start < resetAt {
			t.Errorf("span starts at %v, before the reset at %v: %v", s.Start, resetAt, s)
		}
	}
	for node := 0; node < 4; node++ {
		if d := rec.Decompose(node, 0, resetAt); d.Spans != 0 || d.Idle() != resetAt {
			t.Errorf("node %d: %d spans and %v idle in the %v before the reset", node, d.Spans, d.Idle(), resetAt)
		}
	}
	end := cl.Sim().Now()
	if got, want := rec.Decompose(0, 0, end).Totals, rec.Decompose(0, resetAt, end).Totals; got != want {
		t.Errorf("totals over the whole run %v differ from totals since the reset %v", got, want)
	}
	if len(rec.inFlight) != 0 {
		t.Errorf("inFlight retains %d packets after the run", len(rec.inFlight))
	}
}

// Two-switch topologies: cross-switch packets traverse two crossbars and
// must show two hop events; intra-switch packets one.
func TestTwoSwitchHops(t *testing.T) {
	cfg := cluster.DefaultConfig(8)
	cfg.Topology = &topo.Spec{Kind: topo.TwoSwitch}
	cl := cluster.New(cfg)
	rec := Attach(cl)
	g := core.UniformGroup(8, 2)
	cl.SpawnAll(func(p *host.Process) {
		rank := p.Rank()
		port, err := gm.Open(p, cl.MCP(rank), 2)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		comm, err := core.NewComm(p, port, 48)
		if err != nil {
			t.Errorf("comm: %v", err)
			return
		}
		if err := comm.Barrier(p, mcp.PE, g, rank, 0); err != nil {
			t.Errorf("barrier: %v", err)
		}
	})
	cl.Run()

	leafOf := cl.Topology().LeafOf()
	hopCount := make(map[uint64]int)
	for _, e := range rec.Events() {
		if e.Kind == Hop {
			if !strings.HasPrefix(e.Reason, "sw") || !strings.Contains(e.Reason, ":p") {
				t.Fatalf("hop reason %q", e.Reason)
			}
			hopCount[e.packet]++
		}
	}
	var cross, local int
	for _, e := range rec.Events() {
		if e.Kind != Inject {
			continue
		}
		want := 1
		if leafOf[int(e.Src)] != leafOf[int(e.Dst)] {
			want = 2
		}
		if hopCount[e.packet] != want {
			t.Fatalf("packet %d->%d crossed %d switches, want %d",
				e.Src, e.Dst, hopCount[e.packet], want)
		}
		if want == 2 {
			cross++
		} else {
			local++
		}
	}
	if cross == 0 || local == 0 {
		t.Fatalf("PE barrier on two switches should mix traffic: cross=%d local=%d", cross, local)
	}
}
