package network

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"gmsim/internal/sim"
)

// testNet builds a single-switch star with n NICs and a recorder of
// deliveries per NIC.
type testNet struct {
	s     *sim.Simulator
	f     *Fabric
	sw    *Switch
	recvd map[NodeID][]*Packet
	times map[NodeID][]sim.Time
}

func newTestNet(n int, lp LinkParams, sp SwitchParams) *testNet {
	tn := &testNet{
		s:     sim.New(),
		recvd: make(map[NodeID][]*Packet),
		times: make(map[NodeID][]sim.Time),
	}
	tn.f = New(tn.s)
	tn.sw = tn.f.AddSwitch(sp)
	for i := 0; i < n; i++ {
		node := NodeID(i)
		tn.f.AttachNIC(node, tn.sw, i, lp, func(p *Packet) {
			tn.recvd[node] = append(tn.recvd[node], p)
			tn.times[node] = append(tn.times[node], tn.s.Now())
		})
	}
	return tn
}

// send transmits one packet; node d hangs off port d of the one switch.
func (tn *testNet) send(src, dst NodeID, size int) *Packet {
	p := &Packet{Route: []byte{byte(dst)}, Src: src, Dst: dst, Size: size}
	tn.f.Iface(src).Transmit(p)
	return p
}

// dropIf is a FaultHook that drops, with reason "loss", every packet its
// predicate picks.
type dropIf func(p *Packet) bool

func (d dropIf) OnHop(_ LinkID, p *Packet) Verdict {
	return Verdict{Drop: d(p), Reason: "loss"}
}

// TestPacketSize pins a packet to the 80-byte size class: the switch's
// chosen output port (fwdPort) and the observer's Mark ride in padding, so
// carrying the packet itself as every hop event's argument, and numbering it
// for a trace, cost it no bytes.
func TestPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got > 80 {
		t.Errorf("Packet is %d bytes, want ≤ 80", got)
	}
}

// A clone is a packet no observer has seen injected: it does not carry the
// original's Mark.
func TestCloneClearsMark(t *testing.T) {
	p := &Packet{Src: 1, Dst: 2, Size: 64, Mark: 7}
	p.SetRoute([]byte{3})
	if q := p.Clone(); q.Mark != 0 || p.Mark != 7 || q.Src != 1 || q.Size != 64 {
		t.Fatalf("clone %+v of %+v", q, p)
	}
}

func TestPointToPointDelivery(t *testing.T) {
	tn := newTestNet(4, DefaultLinkParams(), DefaultSwitchParams(4))
	tn.send(0, 3, 64)
	tn.s.Run()
	if len(tn.recvd[3]) != 1 {
		t.Fatalf("NIC 3 received %d packets, want 1", len(tn.recvd[3]))
	}
	if tn.f.Delivered() != 1 || tn.f.Dropped() != 0 {
		t.Fatalf("delivered/dropped = %d/%d", tn.f.Delivered(), tn.f.Dropped())
	}
}

func TestDeliveryLatencyCutThrough(t *testing.T) {
	lp := LinkParams{BandwidthMBps: 160, Latency: 300}
	sp := SwitchParams{Ports: 4, RouteDelay: 300}
	tn := newTestNet(4, lp, sp)
	size := 64
	tn.send(0, 1, size)
	tn.s.Run()
	// head: link latency + route delay + link latency; tail: + wire time once
	wire := lp.wireTime(size)
	want := 300 + 300 + 300 + wire
	got := tn.times[1][0]
	if got != want {
		t.Fatalf("delivery at %v, want %v", got, want)
	}
}

func TestWireTime(t *testing.T) {
	lp := LinkParams{BandwidthMBps: 160, Latency: 0}
	// 160 MB/s = 160 bytes/µs; 1600 bytes = 10 µs.
	if got := lp.wireTime(1600); got != 10*sim.Microsecond {
		t.Fatalf("wireTime = %v, want 10us", got)
	}
	if lp.wireTime(0) != 0 || lp.wireTime(-5) != 0 {
		t.Fatal("non-positive size should have zero wire time")
	}
}

func TestSerializationDelaysSecondPacket(t *testing.T) {
	lp := LinkParams{BandwidthMBps: 160, Latency: 300}
	sp := SwitchParams{Ports: 4, RouteDelay: 300}
	tn := newTestNet(4, lp, sp)
	tn.send(0, 1, 1600) // 10 µs wire
	tn.send(0, 2, 1600)
	tn.s.Run()
	d1, d2 := tn.times[1][0], tn.times[2][0]
	if d2-d1 != lp.wireTime(1600) {
		t.Fatalf("second delivery should lag by one wire time: d1=%v d2=%v", d1, d2)
	}
}

func TestOutputPortContention(t *testing.T) {
	// Two senders to the same destination: deliveries serialize at the
	// switch output port.
	lp := LinkParams{BandwidthMBps: 160, Latency: 300}
	sp := SwitchParams{Ports: 4, RouteDelay: 300}
	tn := newTestNet(4, lp, sp)
	tn.send(0, 3, 1600)
	tn.send(1, 3, 1600)
	tn.s.Run()
	if len(tn.times[3]) != 2 {
		t.Fatalf("received %d, want 2", len(tn.times[3]))
	}
	gap := tn.times[3][1] - tn.times[3][0]
	if gap < lp.wireTime(1600) {
		t.Fatalf("deliveries overlapped on one output port: gap=%v wire=%v", gap, lp.wireTime(1600))
	}
}

func TestBidirectionalNoInterference(t *testing.T) {
	// 0->1 and 1->0 simultaneously: separate channels, identical latency.
	tn := newTestNet(2, DefaultLinkParams(), DefaultSwitchParams(2))
	tn.send(0, 1, 64)
	tn.send(1, 0, 64)
	tn.s.Run()
	if len(tn.times[0]) != 1 || len(tn.times[1]) != 1 {
		t.Fatal("both directions should deliver")
	}
	if tn.times[0][0] != tn.times[1][0] {
		t.Fatalf("full-duplex exchange should be symmetric: %v vs %v",
			tn.times[0][0], tn.times[1][0])
	}
}

func TestBadRouteDropped(t *testing.T) {
	tn := newTestNet(2, DefaultLinkParams(), DefaultSwitchParams(4))
	p := &Packet{Route: []byte{3}, Src: 0, Dst: 1, Size: 64} // port 3 uncabled
	tn.f.Iface(0).Transmit(p)
	tn.s.Run()
	if tn.f.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", tn.f.Dropped())
	}
	if tn.f.Delivered() != 0 {
		t.Fatal("bad-route packet delivered")
	}
}

func TestRouteExhaustedDropped(t *testing.T) {
	tn := newTestNet(2, DefaultLinkParams(), DefaultSwitchParams(2))
	p := &Packet{Route: []byte{}, Src: 0, Dst: 1, Size: 64}
	tn.f.Iface(0).Transmit(p)
	tn.s.Run()
	if tn.f.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", tn.f.Dropped())
	}
}

func TestRouteLeftOverDropped(t *testing.T) {
	tn := newTestNet(2, DefaultLinkParams(), DefaultSwitchParams(2))
	p := &Packet{Route: []byte{1, 0}, Src: 0, Dst: 1, Size: 64} // extra byte
	tn.f.Iface(0).Transmit(p)
	tn.s.Run()
	if tn.f.Dropped() != 1 || len(tn.recvd[1]) != 0 {
		t.Fatal("packet with leftover route bytes must be dropped at NIC")
	}
}

// TestLossFuncDropsAndCounts: a hook's drop verdict discards the packet,
// counts it and tells the observer the hook's reason; clearing the hook
// restores delivery.
func TestLossFuncDropsAndCounts(t *testing.T) {
	tn := newTestNet(2, DefaultLinkParams(), DefaultSwitchParams(2))
	o := &countingObserver{}
	tn.f.SetObserver(o)
	tn.f.SetFaultHook(dropIf(func(p *Packet) bool { return p.Dst == 1 }))
	tn.send(0, 1, 64)
	tn.s.Run()
	if tn.f.Dropped() != 1 || !slices.Equal(o.reasons, []string{"loss"}) {
		t.Fatalf("dropped = %d, reasons = %v; want one \"loss\"", tn.f.Dropped(), o.reasons)
	}
	if len(tn.recvd[1]) != 0 {
		t.Fatal("lost packet was delivered")
	}
	tn.f.SetFaultHook(nil)
	tn.send(0, 1, 64)
	tn.s.Run()
	if len(tn.recvd[1]) != 1 {
		t.Fatal("delivery after clearing the hook failed")
	}
}

type countingObserver struct {
	injected, delivered, dropped int
	reasons                      []string
}

func (c *countingObserver) PacketInjected(*Packet)  { c.injected++ }
func (c *countingObserver) PacketDelivered(*Packet) { c.delivered++ }
func (c *countingObserver) PacketDropped(p *Packet, reason string) {
	c.dropped++
	c.reasons = append(c.reasons, reason)
}

func TestObserverEvents(t *testing.T) {
	tn := newTestNet(4, DefaultLinkParams(), DefaultSwitchParams(4))
	o := &countingObserver{}
	tn.f.SetObserver(o)
	tn.send(0, 1, 64)
	tn.send(2, 3, 64)
	tn.s.Run()
	if o.injected != 2 || o.delivered != 2 || o.dropped != 0 {
		t.Fatalf("observer = %+v", o)
	}
}

func TestTwoSwitchTopology(t *testing.T) {
	s := sim.New()
	f := New(s)
	lp := LinkParams{BandwidthMBps: 160, Latency: 300}
	sp := SwitchParams{Ports: 8, RouteDelay: 300}
	swA := f.AddSwitch(sp)
	swB := f.AddSwitch(sp)
	f.ConnectSwitches(swA, 7, swB, 7, lp)
	var delivered []sim.Time
	for i := 0; i < 4; i++ {
		node := NodeID(i)
		sw, port := swA, i
		if i >= 2 {
			sw, port = swB, i-2
		}
		f.AttachNIC(node, sw, port, lp, func(p *Packet) {
			delivered = append(delivered, s.Now())
		})
	}
	// Out of A on the trunk, out of B on node 3's port.
	r := []byte{7, 1}
	f.Iface(0).Transmit(&Packet{Route: r, Src: 0, Dst: 3, Size: 64})
	s.Run()
	if len(delivered) != 1 {
		t.Fatal("cross-switch packet not delivered")
	}
	// 3 links + 2 route delays + 1 wire time.
	want := 3*lp.Latency + 2*sp.RouteDelay + lp.wireTime(64)
	if delivered[0] != want {
		t.Fatalf("delivery at %v, want %v", delivered[0], want)
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	tn := newTestNet(2, DefaultLinkParams(), DefaultSwitchParams(4))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tn.f.AttachNIC(0, tn.sw, 3, DefaultLinkParams(), nil)
}

func TestPortReusePanics(t *testing.T) {
	tn := newTestNet(2, DefaultLinkParams(), DefaultSwitchParams(4))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tn.f.AttachNIC(5, tn.sw, 0, DefaultLinkParams(), nil)
}

func TestPacketClone(t *testing.T) {
	p := &Packet{Route: []byte{1, 2}, Src: 0, Dst: 1, Size: 10}
	q := p.Clone()
	q.Route[0] = 9
	if p.Route[0] != 1 {
		t.Fatal("Clone shares route storage")
	}
	if q.Src != p.Src || q.Size != p.Size {
		t.Fatal("Clone lost fields")
	}
}

func TestPacketString(t *testing.T) {
	p := &Packet{Route: []byte{5}, Src: 0, Dst: 5, Size: 16}
	if p.String() == "" {
		t.Fatal("empty String")
	}
}

// TestTxBusy: a packet handed to a busy interface queues behind the one
// still serializing, so two back-to-back sends arrive exactly one
// serialization time apart.
func TestTxBusy(t *testing.T) {
	lp := LinkParams{BandwidthMBps: 1, Latency: 0} // 1 byte/µs: slow
	tn := newTestNet(2, lp, DefaultSwitchParams(2))
	tn.send(0, 1, 1000)
	tn.send(0, 1, 1000)
	tn.s.Run()
	got := tn.times[1]
	if len(got) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(got))
	}
	if gap := got[1] - got[0]; gap != lp.wireTime(1000) {
		t.Fatalf("arrivals %v apart, want one serialization time %v", gap, lp.wireTime(1000))
	}
}

// Property: on a random star, N random packets are all delivered exactly
// once with zero drops, and each delivery time is at least the contention-
// free minimum.
func TestPropertyAllDelivered(t *testing.T) {
	lp := DefaultLinkParams()
	sp := DefaultSwitchParams(16)
	minLatency := 2*lp.Latency + sp.RouteDelay
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tn := newTestNet(16, lp, sp)
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			src := NodeID(rng.Intn(16))
			dst := NodeID(rng.Intn(16))
			if src == dst {
				dst = (dst + 1) % 16
			}
			tn.send(src, dst, 16+rng.Intn(512))
		}
		tn.s.Run()
		total := 0
		for node, times := range tn.times {
			total += len(times)
			for _, at := range times {
				if at < minLatency+lp.wireTime(16) {
					return false
				}
			}
			_ = node
		}
		return total == n && tn.f.Dropped() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestManyNICsUniqueDelivery(t *testing.T) {
	// Each NIC sends to (i+1)%n: everyone receives exactly one.
	n := 16
	tn := newTestNet(n, DefaultLinkParams(), DefaultSwitchParams(n))
	for i := 0; i < n; i++ {
		tn.send(NodeID(i), NodeID((i+1)%n), 32)
	}
	tn.s.Run()
	for i := 0; i < n; i++ {
		if got := len(tn.recvd[NodeID(i)]); got != 1 {
			t.Fatalf("NIC %d received %d, want 1", i, got)
		}
		if tn.recvd[NodeID(i)][0].Src != NodeID((i-1+n)%n) {
			t.Fatalf("NIC %d got packet from %v", i, tn.recvd[NodeID(i)][0].Src)
		}
	}
}

func TestDefaultParams(t *testing.T) {
	lp := DefaultLinkParams()
	if lp.BandwidthMBps <= 0 || lp.Latency <= 0 {
		t.Fatal("bad default link params")
	}
	sp := DefaultSwitchParams(16)
	if sp.Ports != 16 || sp.RouteDelay <= 0 {
		t.Fatal("bad default switch params")
	}
	sw := (&testNet{}).sw
	_ = sw
}

func TestSwitchAccessors(t *testing.T) {
	tn := newTestNet(2, DefaultLinkParams(), DefaultSwitchParams(8))
	if tn.sw.Ports() != 8 || tn.sw.ID() != 0 {
		t.Fatalf("Ports/ID = %d/%d", tn.sw.Ports(), tn.sw.ID())
	}
	if !tn.sw.portCabled(0) || tn.sw.portCabled(7) {
		t.Fatal("portCabled wrong")
	}
	if tn.sw.portCabled(-1) || tn.sw.portCabled(100) {
		t.Fatal("portCabled out of range should be false")
	}
}

// TestSwitchLinksPastLastSwitch pins SwitchLinks' bound: the last switch
// has its links, and the index just past it has none.
func TestSwitchLinksPastLastSwitch(t *testing.T) {
	s := sim.New()
	f := New(s)
	lp := DefaultLinkParams()
	swA := f.AddSwitch(DefaultSwitchParams(8))
	swB := f.AddSwitch(DefaultSwitchParams(8))
	f.ConnectSwitches(swA, 7, swB, 7, lp)
	f.AttachNIC(0, swB, 0, lp, func(*Packet) {})
	n := f.NumSwitches()
	if got := len(f.SwitchLinks(n - 1)); got != 4 {
		t.Fatalf("last switch has %d links, want 4 (trunk and cable, both directions)", got)
	}
	if got := f.SwitchLinks(n); got != nil {
		t.Fatalf("SwitchLinks(NumSwitches()) = %v, want nil", got)
	}
}

func TestZeroPortSwitchPanics(t *testing.T) {
	s := sim.New()
	f := New(s)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.AddSwitch(SwitchParams{Ports: 0})
}

func ExampleFabric() {
	s := sim.New()
	f := New(s)
	sw := f.AddSwitch(DefaultSwitchParams(16))
	for i := 0; i < 2; i++ {
		node := NodeID(i)
		f.AttachNIC(node, sw, i, DefaultLinkParams(), func(p *Packet) {
			fmt.Printf("node %d received %d bytes from node %d\n", node, p.Size, p.Src)
		})
	}
	// The sender names the path: out of the switch on node 1's port.
	f.Iface(0).Transmit(&Packet{Route: []byte{1}, Src: 0, Dst: 1, Size: 64})
	s.Run()
	// Output: node 1 received 64 bytes from node 0
}
