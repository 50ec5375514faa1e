package trace

import (
	"slices"
	"strings"
	"testing"

	"gmsim/internal/cluster"
	"gmsim/internal/core"
	"gmsim/internal/gm"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/network"
	"gmsim/internal/sim"
)

// runTracedBarrier runs one NIC-PE barrier on n nodes with a recorder.
func runTracedBarrier(t *testing.T, n int) (*Recorder, *cluster.Cluster) {
	t.Helper()
	cl := cluster.New(cluster.DefaultConfig(n))
	rec := NewRecorder(cl.Fabric())
	g := core.UniformGroup(n, 2)
	cl.SpawnAll(func(p *host.Process) {
		rank := p.Rank()
		port, err := gm.Open(p, cl.MCP(rank), 2)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		comm, err := core.NewComm(p, port, 32)
		if err != nil {
			t.Errorf("comm: %v", err)
			return
		}
		if err := comm.Barrier(p, mcp.PE, g, rank, 0); err != nil {
			t.Errorf("barrier: %v", err)
		}
	})
	cl.Run()
	return rec, cl
}

func TestRecorderCapturesBarrierTraffic(t *testing.T) {
	rec, _ := runTracedBarrier(t, 4)
	// 4 nodes × 2 steps = 8 PE frames: 8 injects + 8 delivers.
	var inj, del int
	for _, e := range rec.Events() {
		if e.Frame != mcp.BarrierPEFrame {
			t.Fatalf("unexpected frame kind %v in unreliable barrier-only run", e.Frame)
		}
		switch e.Kind {
		case Inject:
			inj++
		case Deliver:
			del++
		}
	}
	if inj != 8 || del != 8 {
		t.Fatalf("inject/deliver = %d/%d, want 8/8", inj, del)
	}
}

func TestEventsAreTimeOrdered(t *testing.T) {
	rec, _ := runTracedBarrier(t, 8)
	evs := rec.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("events out of time order")
		}
	}
	if rec.nEvents != len(evs) {
		t.Fatal("event count mismatch")
	}
}

func TestWireLatencies(t *testing.T) {
	rec, cl := runTracedBarrier(t, 4)
	lats := rec.WireLatencies()
	if len(lats) != 8 {
		t.Fatalf("latencies = %d, want 8", len(lats))
	}
	lp := cl.Config().Link
	sp := cl.Config().Switch
	want := 2*lp.Latency + sp.RouteDelay + sim.Time(float64(mcp.HeaderBytes)/lp.BandwidthMBps*1000+0.5)
	for _, l := range lats {
		if l.Latency() != want {
			t.Fatalf("wire latency = %v, want %v", l.Latency(), want)
		}
		if l.Frame != mcp.BarrierPEFrame {
			t.Fatalf("frame = %v", l.Frame)
		}
	}
}

func TestEnableDisable(t *testing.T) {
	cl := cluster.New(cluster.DefaultConfig(2))
	rec := NewRecorder(cl.Fabric())
	rec.Disable()
	g := core.UniformGroup(2, 2)
	cl.SpawnAll(func(p *host.Process) {
		rank := p.Rank()
		port, _ := gm.Open(p, cl.MCP(rank), 2)
		comm, _ := core.NewComm(p, port, 16)
		comm.Barrier(p, mcp.PE, g, rank, 0)
	})
	cl.Run()
	if rec.nEvents != 0 {
		t.Fatalf("disabled recorder captured %d events", rec.nEvents)
	}
}

func TestCountsAndDump(t *testing.T) {
	rec, _ := runTracedBarrier(t, 2)
	counts := rec.Counts()
	if counts["inject/barrier-pe"] != 2 || counts["deliver/barrier-pe"] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	dump := rec.Dump()
	if !strings.Contains(dump, "barrier-pe") || !strings.Contains(dump, "inject") {
		t.Fatalf("dump missing content:\n%s", dump)
	}
	if Kind(42).String() == "" || Drop.String() != "drop" {
		t.Fatal("Kind string wrong")
	}
}

// The recorder numbers a packet through its Mark: the original of a packet
// injected while recording carries its number until it arrives, a copy or a
// packet injected while off carries none (whatever it held before), and
// only the numbered original's arrival becomes a wire span.
func TestPacketMarks(t *testing.T) {
	cl := cluster.New(cluster.DefaultConfig(2))
	r := Attach(cl)
	s := cl.Sim()
	p := &network.Packet{Src: 0, Dst: 1, Size: 64, Payload: &mcp.Frame{Kind: mcp.DataFrame, Seq: 1}}
	stale := &network.Packet{Src: 1, Dst: 0, Size: 64, Mark: 99}
	var dup *network.Packet
	s.At(10, func() {
		r.PacketInjected(p)
		r.Disable()
		r.PacketInjected(stale)
		r.Enable()
		dup = p.Clone()
	})
	s.At(20, func() {
		r.PacketDelivered(dup)
		r.PacketDelivered(p)
		r.PacketDelivered(p)
		r.PacketDelivered(stale)
	})
	s.Run()
	if p.Mark != 0 || dup.Mark != 0 || stale.Mark != 0 {
		t.Errorf("marks left: original %d, copy %d, injected while off %d", p.Mark, dup.Mark, stale.Mark)
	}
	var numbered []uint32
	for _, e := range r.Events() {
		numbered = append(numbered, e.packet)
	}
	if want := []uint32{1, 0, 1, 0, 0}; !slices.Equal(numbered, want) {
		t.Errorf("events carry packets %v, want %v", numbered, want)
	}
	spans := r.Phases().Spans()
	if len(spans) != 1 || spans[0].Start != 10 || spans[0].End != 20 || spans[0].Node != 0 || spans[0].Peer != 1 ||
		r.Phases().Name(spans[0].Label) != "wire.data" {
		t.Errorf("wire spans %+v, want one data span 0->1 over [10, 20)", spans)
	}
}
