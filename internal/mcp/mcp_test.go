package mcp

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"gmsim/internal/lanai"
	"gmsim/internal/network"
	"gmsim/internal/sim"
)

// rig is a test harness: a block of n MCPs on a single-switch fabric, with
// host events captured per (node, port).
type rig struct {
	s      *sim.Simulator
	fab    *network.Fabric
	mcps   []*MCP
	events map[string][]HostEvent
}

func key(node, port int) string { return fmt.Sprintf("%d:%d", node, port) }

func newRig(t *testing.T, n int, mutate func(cfg *Config)) *rig {
	t.Helper()
	r := &rig{s: sim.New(), events: make(map[string][]HostEvent)}
	r.fab = network.New(r.s, network.Shape{Switches: 1, Ports: n, NICs: n})
	sw := r.fab.AddSwitch(network.DefaultSwitchParams(n))
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	cards := NewMCPs(lanai.NewNICs(r.s, lanai.LANai43(), n), cfg)
	for i := range cards {
		m := &cards[i]
		m.Attach(r.fab.AttachNIC(network.NodeID(i), sw, i, network.DefaultLinkParams(), m), oneSwitch{})
		r.mcps = append(r.mcps, m)
	}
	return r
}

// hostFunc is a HostReceiver made of a closure.
type hostFunc func(*HostEvent)

func (f hostFunc) HandleHostEvent(ev *HostEvent) { f(ev) }

// oneSwitch routes the rig's single-switch fabric: node d hangs off port d.
type oneSwitch struct{}

func (oneSwitch) Route(_, dst int) ([]byte, error) { return []byte{byte(dst)}, nil }

// dropIf is a network.FaultHook that drops, with reason "loss", every
// packet its predicate picks.
type dropIf func(link network.LinkID, p *network.Packet) bool

func (d dropIf) OnHop(link network.LinkID, p *network.Packet) network.Verdict {
	return network.Verdict{Drop: d(link, p), Reason: "loss"}
}

// randomLoss drops each hop with the given probability, drawn from one stream
// per link derived from (seed, link).
func randomLoss(rate float64, seed int64) dropIf {
	streams := make(map[network.LinkID]*rand.Rand)
	return func(link network.LinkID, _ *network.Packet) bool {
		if streams[link] == nil {
			streams[link] = network.LinkStream(seed, link)
		}
		return streams[link].Float64() < rate
	}
}

// open opens a port and records its delivered events.
func (r *rig) open(t *testing.T, node, port int) {
	t.Helper()
	k := key(node, port)
	if err := r.mcps[node].OpenPort(port, hostFunc(func(ev *HostEvent) {
		r.events[k] = append(r.events[k], *ev)
	})); err != nil {
		t.Fatalf("open %s: %v", k, err)
	}
}

func (r *rig) provide(t *testing.T, node, port, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := r.mcps[node].credit(port, ReceiveToken); err != nil {
			t.Fatalf("provide: %v", err)
		}
	}
}

func (r *rig) recvEvents(node, port int) []HostEvent {
	var out []HostEvent
	for _, ev := range r.events[key(node, port)] {
		if ev.Kind == RecvEvent {
			out = append(out, ev)
		}
	}
	return out
}

func (r *rig) barrierDone(node, port int) int {
	n := 0
	for _, ev := range r.events[key(node, port)] {
		if ev.Kind == BarrierDoneEvent {
			n++
		}
	}
	return n
}

func TestSeqCompare(t *testing.T) {
	cases := []struct {
		a, b uint32
		less bool
	}{
		{0, 1, true},
		{1, 0, false},
		{5, 5, false},
		{^uint32(0), 0, true},     // wraparound
		{^uint32(0) - 3, 2, true}, // across the wrap
		{0, 1 << 31, false},       // exactly half the space: not less
		{0, 1<<31 - 1, true},      // just under half
		{1 << 31, 0, false},
	}
	for _, c := range cases {
		if got := seqLess(c.a, c.b); got != c.less {
			t.Errorf("seqLess(%d,%d) = %v, want %v", c.a, c.b, got, c.less)
		}
	}
}

func TestFrameKindStrings(t *testing.T) {
	for k := DataFrame; k <= BarrierRejectFrame; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has empty string", int(k))
		}
	}
	if FrameKind(99).String() != "kind(99)" {
		t.Fatal("unknown kind string wrong")
	}
}

func TestFrameWireSize(t *testing.T) {
	f := &Frame{Kind: DataFrame, Data: make([]byte, 100)}
	if f.WireSize() != HeaderBytes+100 {
		t.Fatalf("WireSize = %d", f.WireSize())
	}
	b := &Frame{Kind: BarrierPEFrame}
	if b.WireSize() != HeaderBytes {
		t.Fatalf("barrier WireSize = %d", b.WireSize())
	}
	if f.String() == "" || (Endpoint{1, 2}).String() != "1:2" {
		t.Fatal("String helpers wrong")
	}
}

func TestDataDelivery(t *testing.T) {
	r := newRig(t, 2, nil)
	r.open(t, 0, 2)
	r.open(t, 1, 2)
	r.provide(t, 1, 2, 4)
	payload := []byte("hello world")
	if err := r.mcps[0].PostSendToken(SendToken{
		SrcPort: 2, Dst: Endpoint{Node: 1, Port: 2}, Data: payload,
	}); err != nil {
		t.Fatal(err)
	}
	r.s.Run()
	evs := r.recvEvents(1, 2)
	if len(evs) != 1 {
		t.Fatalf("got %d recv events, want 1", len(evs))
	}
	if !bytes.Equal(evs[0].Data, payload) {
		t.Fatalf("payload = %q", evs[0].Data)
	}
	if evs[0].Src != (Endpoint{Node: 0, Port: 2}) {
		t.Fatalf("src = %v", evs[0].Src)
	}
	// Sender got one completion for its one send.
	var sent int
	for _, ev := range r.events[key(0, 2)] {
		if ev.Kind == SentEvent && !ev.Failed {
			sent++
		}
	}
	if sent != 1 {
		t.Fatalf("sent events = %d", sent)
	}
	st := r.mcps[0].Stats()
	if st.DataSent != 1 || st.Retransmissions != 0 {
		t.Fatalf("sender stats = %+v", st)
	}
}

func TestDataOrderingManyMessages(t *testing.T) {
	r := newRig(t, 2, nil)
	r.open(t, 0, 2)
	r.open(t, 1, 2)
	r.provide(t, 1, 2, 50)
	for i := 0; i < 10; i++ {
		if err := r.mcps[0].PostSendToken(SendToken{
			SrcPort: 2, Dst: Endpoint{Node: 1, Port: 2}, Data: []byte{byte(i)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	r.s.Run()
	evs := r.recvEvents(1, 2)
	if len(evs) != 10 {
		t.Fatalf("got %d events, want 10", len(evs))
	}
	for i, ev := range evs {
		if ev.Data[0] != byte(i) {
			t.Fatalf("message %d out of order: got %d", i, ev.Data[0])
		}
	}
}

func TestDataLossRecovered(t *testing.T) {
	r := newRig(t, 2, nil)
	r.open(t, 0, 2)
	r.open(t, 1, 2)
	r.provide(t, 1, 2, 20)
	// Drop the first data packet once.
	dropped := false
	r.fab.SetFaultHook(dropIf(func(_ network.LinkID, p *network.Packet) bool {
		f, ok := p.Payload.(*Frame)
		if ok && f.Kind == DataFrame && !dropped {
			dropped = true
			return true
		}
		return false
	}))
	for i := 0; i < 5; i++ {
		if err := r.mcps[0].PostSendToken(SendToken{
			SrcPort: 2, Dst: Endpoint{Node: 1, Port: 2}, Data: []byte{byte(i)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	r.s.Run()
	evs := r.recvEvents(1, 2)
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5 (loss not recovered)", len(evs))
	}
	for i, ev := range evs {
		if ev.Data[0] != byte(i) {
			t.Fatalf("message %d out of order after recovery: got %d", i, ev.Data[0])
		}
	}
	st := r.mcps[0].Stats()
	if st.Retransmissions == 0 {
		t.Fatal("expected retransmissions")
	}
	rst := r.mcps[1].Stats()
	if rst.OutOfOrder == 0 && rst.NacksSent == 0 {
		t.Fatalf("receiver should have nacked: %+v", rst)
	}
}

func TestDataHeavyRandomLoss(t *testing.T) {
	// 10% random loss on every hop: all 40 messages still arrive exactly
	// once, in order.
	r := newRig(t, 2, func(cfg *Config) { cfg.MaxSendTokens = 64 })
	r.open(t, 0, 2)
	r.open(t, 1, 2)
	r.provide(t, 1, 2, 100)
	r.fab.SetFaultHook(randomLoss(0.1, 1234))
	for i := 0; i < 40; i++ {
		if err := r.mcps[0].PostSendToken(SendToken{
			SrcPort: 2, Dst: Endpoint{Node: 1, Port: 2}, Data: []byte{byte(i)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	r.s.Run()
	evs := r.recvEvents(1, 2)
	if len(evs) != 40 {
		t.Fatalf("got %d events, want 40", len(evs))
	}
	for i, ev := range evs {
		if ev.Data[0] != byte(i) {
			t.Fatalf("message %d wrong: got %d", i, ev.Data[0])
		}
	}
}

func TestAckLossRecoveredByTimer(t *testing.T) {
	r := newRig(t, 2, nil)
	r.open(t, 0, 2)
	r.open(t, 1, 2)
	r.provide(t, 1, 2, 10)
	dropped := false
	r.fab.SetFaultHook(dropIf(func(_ network.LinkID, p *network.Packet) bool {
		f, ok := p.Payload.(*Frame)
		if ok && f.Kind == AckFrame && !dropped {
			dropped = true
			return true
		}
		return false
	}))
	if err := r.mcps[0].PostSendToken(SendToken{
		SrcPort: 2, Dst: Endpoint{Node: 1, Port: 2}, Data: []byte("x"),
	}); err != nil {
		t.Fatal(err)
	}
	r.s.Run()
	// Message delivered once (duplicate suppressed), sender completion
	// eventually arrives via retransmit + re-ack.
	if got := len(r.recvEvents(1, 2)); got != 1 {
		t.Fatalf("delivered %d, want 1", got)
	}
	if r.mcps[1].Stats().Duplicates == 0 {
		t.Fatal("expected duplicate detection after timer retransmit")
	}
	var sent int
	for _, ev := range r.events[key(0, 2)] {
		if ev.Kind == SentEvent {
			sent++
		}
	}
	if sent != 1 {
		t.Fatalf("sent completions = %d, want 1", sent)
	}
}

func TestNoRecvTokenFlowControl(t *testing.T) {
	r := newRig(t, 2, nil)
	r.open(t, 0, 2)
	r.open(t, 1, 2) // no receive buffers provided
	if err := r.mcps[0].PostSendToken(SendToken{
		SrcPort: 2, Dst: Endpoint{Node: 1, Port: 2}, Data: []byte("x"),
	}); err != nil {
		t.Fatal(err)
	}
	// Let the first attempt fail, then provide a buffer and let the
	// retransmit timer deliver it.
	r.s.RunUntil(500 * sim.Microsecond)
	if got := len(r.recvEvents(1, 2)); got != 0 {
		t.Fatalf("delivered %d without a buffer", got)
	}
	if r.mcps[1].Stats().NoRecvToken == 0 {
		t.Fatal("NoRecvToken not counted")
	}
	r.provide(t, 1, 2, 1)
	r.s.Run()
	if got := len(r.recvEvents(1, 2)); got != 1 {
		t.Fatalf("delivered %d after providing buffer, want 1", got)
	}
}

func TestSendToClosedPortCounted(t *testing.T) {
	r := newRig(t, 2, nil)
	r.open(t, 0, 2)
	// Port 2 on node 1 never opened.
	if err := r.mcps[0].PostSendToken(SendToken{
		SrcPort: 2, Dst: Endpoint{Node: 1, Port: 2}, Data: []byte("x"),
	}); err != nil {
		t.Fatal(err)
	}
	r.s.RunUntil(3 * sim.Millisecond)
	if r.mcps[1].Stats().ProtocolErrors == 0 {
		t.Fatal("data to closed port should count as protocol error")
	}
}

func TestOpenCloseErrors(t *testing.T) {
	r := newRig(t, 1, nil)
	m := r.mcps[0]
	if err := m.OpenPort(99, nil); err == nil {
		t.Fatal("open invalid port should error")
	}
	r.open(t, 0, 2)
	if err := m.OpenPort(2, nil); err == nil {
		t.Fatal("double open should error")
	}
	if err := m.ClosePort(3); err == nil {
		t.Fatal("close unopened should error")
	}
	if err := m.ClosePort(2); err != nil {
		t.Fatal(err)
	}
	if err := m.ClosePort(2); err == nil {
		t.Fatal("double close should error")
	}
	if err := m.credit(2, ReceiveToken); err == nil {
		t.Fatal("receive token for closed port should error")
	}
	if err := m.credit(2, BarrierBuffer); err == nil {
		t.Fatal("barrier buffer for closed port should error")
	}
}

func TestSendTokenExhaustion(t *testing.T) {
	r := newRig(t, 2, func(cfg *Config) { cfg.MaxSendTokens = 2 })
	r.open(t, 0, 2)
	r.open(t, 1, 2)
	ep := Endpoint{Node: 1, Port: 2}
	if err := r.mcps[0].PostSendToken(SendToken{SrcPort: 2, Dst: ep, Data: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	if err := r.mcps[0].PostSendToken(SendToken{SrcPort: 2, Dst: ep, Data: []byte("b")}); err != nil {
		t.Fatal(err)
	}
	if err := r.mcps[0].PostSendToken(SendToken{SrcPort: 2, Dst: ep, Data: []byte("c")}); err == nil {
		t.Fatal("third send should exhaust tokens")
	}
}

func TestPortEpochIncrements(t *testing.T) {
	r := newRig(t, 1, nil)
	r.open(t, 0, 2)
	e1 := r.mcps[0].Port(2).epoch
	if err := r.mcps[0].ClosePort(2); err != nil {
		t.Fatal(err)
	}
	r.open(t, 0, 2)
	if e2 := r.mcps[0].Port(2).epoch; e2 != e1+1 {
		t.Fatalf("epoch %d -> %d, want increment", e1, e2)
	}
}

func TestBadNumPortsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.NumPorts = 9
	NewMCPs(lanai.NewNICs(sim.New(), lanai.LANai43(), 1), cfg)
}

// postPEBarrier provides a buffer and posts a PE token.
func postPEBarrier(t *testing.T, r *rig, node, port int, peers []Endpoint) *BarrierToken {
	t.Helper()
	if err := r.mcps[node].credit(port, BarrierBuffer); err != nil {
		t.Fatal(err)
	}
	tok := &BarrierToken{Alg: PE, SrcPort: port, Peers: peers}
	if err := r.mcps[node].PostBarrierToken(tok); err != nil {
		t.Fatal(err)
	}
	return tok
}

func TestPEBarrierTwoNodes(t *testing.T) {
	r := newRig(t, 2, nil)
	r.open(t, 0, 2)
	r.open(t, 1, 2)
	postPEBarrier(t, r, 0, 2, []Endpoint{{Node: 1, Port: 2}})
	postPEBarrier(t, r, 1, 2, []Endpoint{{Node: 0, Port: 2}})
	r.s.Run()
	if r.barrierDone(0, 2) != 1 || r.barrierDone(1, 2) != 1 {
		t.Fatalf("completions = %d/%d", r.barrierDone(0, 2), r.barrierDone(1, 2))
	}
	if r.mcps[0].Port(2).slots[barrierSlot].live {
		t.Fatal("barrier token pointer not cleared")
	}
}

func TestPEBarrierAsymmetricStart(t *testing.T) {
	// Node 1 posts its token 200 µs late: node 0's message must be
	// recorded as unexpected and consumed at token-processing time.
	r := newRig(t, 2, nil)
	r.open(t, 0, 2)
	r.open(t, 1, 2)
	postPEBarrier(t, r, 0, 2, []Endpoint{{Node: 1, Port: 2}})
	r.s.At(200*sim.Microsecond, func() {
		postPEBarrier(t, r, 1, 2, []Endpoint{{Node: 0, Port: 2}})
	})
	r.s.Run()
	if r.barrierDone(0, 2) != 1 || r.barrierDone(1, 2) != 1 {
		t.Fatal("asymmetric barrier did not complete")
	}
	if r.mcps[1].Stats().BarrierUnexp == 0 {
		t.Fatal("expected an unexpected-message record on the late node")
	}
}

func TestEmptyPEBarrierCompletesLocally(t *testing.T) {
	r := newRig(t, 1, nil)
	r.open(t, 0, 2)
	postPEBarrier(t, r, 0, 2, nil)
	r.s.Run()
	if r.barrierDone(0, 2) != 1 {
		t.Fatal("empty barrier should complete immediately")
	}
}

func TestBarrierWithoutBufferRejected(t *testing.T) {
	r := newRig(t, 1, nil)
	r.open(t, 0, 2)
	tok := &BarrierToken{Alg: PE, SrcPort: 2}
	if err := r.mcps[0].PostBarrierToken(tok); err == nil {
		t.Fatal("barrier without buffer should be rejected")
	}
}

func TestConcurrentBarrierOnSamePortRejected(t *testing.T) {
	r := newRig(t, 2, nil)
	r.open(t, 0, 2)
	r.open(t, 1, 2)
	postPEBarrier(t, r, 0, 2, []Endpoint{{Node: 1, Port: 2}})
	if err := r.mcps[0].credit(2, BarrierBuffer); err != nil {
		t.Fatal(err)
	}
	err := r.mcps[0].PostBarrierToken(&BarrierToken{Alg: PE, SrcPort: 2, Peers: []Endpoint{{Node: 1, Port: 2}}})
	if err == nil {
		t.Fatal("second in-flight barrier on one port should be rejected")
	}
}

func TestGBBarrierThreeNodes(t *testing.T) {
	// 0 is root with children 1, 2.
	r := newRig(t, 3, nil)
	for i := 0; i < 3; i++ {
		r.open(t, i, 2)
		if err := r.mcps[i].credit(2, BarrierBuffer); err != nil {
			t.Fatal(err)
		}
	}
	root := &BarrierToken{Alg: GB, SrcPort: 2, Root: true,
		Children: []Endpoint{{Node: 1, Port: 2}, {Node: 2, Port: 2}}}
	c1 := &BarrierToken{Alg: GB, SrcPort: 2, Parent: Endpoint{Node: 0, Port: 2}}
	c2 := &BarrierToken{Alg: GB, SrcPort: 2, Parent: Endpoint{Node: 0, Port: 2}}
	if err := r.mcps[0].PostBarrierToken(root); err != nil {
		t.Fatal(err)
	}
	if err := r.mcps[1].PostBarrierToken(c1); err != nil {
		t.Fatal(err)
	}
	if err := r.mcps[2].PostBarrierToken(c2); err != nil {
		t.Fatal(err)
	}
	r.s.Run()
	for i := 0; i < 3; i++ {
		if r.barrierDone(i, 2) != 1 {
			t.Fatalf("node %d completions = %d", i, r.barrierDone(i, 2))
		}
	}
}

func TestMultipleConcurrentBarriersDifferentPorts(t *testing.T) {
	// Ports 2 and 3 on the same two NICs run independent barriers
	// concurrently (Section 3.4 / 4.2).
	r := newRig(t, 2, nil)
	for _, port := range []int{2, 3} {
		r.open(t, 0, port)
		r.open(t, 1, port)
		postPEBarrier(t, r, 0, port, []Endpoint{{Node: 1, Port: port}})
		postPEBarrier(t, r, 1, port, []Endpoint{{Node: 0, Port: port}})
	}
	r.s.Run()
	for _, port := range []int{2, 3} {
		if r.barrierDone(0, port) != 1 || r.barrierDone(1, port) != 1 {
			t.Fatalf("port %d barrier incomplete", port)
		}
	}
}

func TestIntraNICBarrierLoopback(t *testing.T) {
	// Two ports of the SAME NIC barrier with each other: packets take the
	// NIC-internal loopback path.
	r := newRig(t, 1, nil)
	r.open(t, 0, 2)
	r.open(t, 0, 3)
	postPEBarrier(t, r, 0, 2, []Endpoint{{Node: 0, Port: 3}})
	postPEBarrier(t, r, 0, 3, []Endpoint{{Node: 0, Port: 2}})
	r.s.Run()
	if r.barrierDone(0, 2) != 1 || r.barrierDone(0, 3) != 1 {
		t.Fatal("intra-NIC barrier did not complete")
	}
	if r.fab.Delivered() != 0 {
		t.Fatal("loopback traffic must not reach the fabric")
	}
}

func TestIntraNICBarrierFlagOptimization(t *testing.T) {
	// Section 3.4 optimization: same semantics, flag instead of packet.
	r := newRig(t, 1, func(cfg *Config) { cfg.LoopbackFlag = true })
	r.open(t, 0, 2)
	r.open(t, 0, 3)
	postPEBarrier(t, r, 0, 2, []Endpoint{{Node: 0, Port: 3}})
	postPEBarrier(t, r, 0, 3, []Endpoint{{Node: 0, Port: 2}})
	r.s.Run()
	if r.barrierDone(0, 2) != 1 || r.barrierDone(0, 3) != 1 {
		t.Fatal("flag-optimized intra-NIC barrier did not complete")
	}
}

func TestClosedPortRecordThenReject(t *testing.T) {
	// Section 3.2's adopted protocol: node 0 barriers with a port on node
	// 1 that is not open yet. The message is recorded; when the port
	// opens, it is rejected back; node 0 resends; the barrier completes.
	r := newRig(t, 2, nil)
	r.open(t, 0, 2)
	postPEBarrier(t, r, 0, 2, []Endpoint{{Node: 1, Port: 2}})
	r.s.RunUntil(300 * sim.Microsecond)
	if r.mcps[1].Stats().ClosedPortRecs == 0 {
		t.Fatal("message to closed port not recorded")
	}
	if r.barrierDone(0, 2) != 0 {
		t.Fatal("barrier completed against a closed port")
	}
	// Now the late process starts.
	r.open(t, 1, 2)
	postPEBarrier(t, r, 1, 2, []Endpoint{{Node: 0, Port: 2}})
	r.s.Run()
	if r.barrierDone(0, 2) != 1 || r.barrierDone(1, 2) != 1 {
		t.Fatalf("completions = %d/%d after reject-resend",
			r.barrierDone(0, 2), r.barrierDone(1, 2))
	}
	if r.mcps[1].Stats().BarrierRejects == 0 {
		t.Fatal("no reject was sent")
	}
	if r.mcps[0].Stats().BarrierResends == 0 {
		t.Fatal("origin did not resend")
	}
}

func TestClosedPortRejectStaleEpochIgnored(t *testing.T) {
	// The initiating port closes before the reject arrives: the resend
	// must be suppressed ("but only if the endpoint that initiated the
	// barrier has not closed since the message was sent").
	r := newRig(t, 2, nil)
	r.open(t, 0, 2)
	postPEBarrier(t, r, 0, 2, []Endpoint{{Node: 1, Port: 2}})
	r.s.RunUntil(300 * sim.Microsecond)
	// Initiator gives up and closes, then reopens (new epoch).
	if err := r.mcps[0].ClosePort(2); err != nil {
		t.Fatal(err)
	}
	r.open(t, 0, 2)
	r.open(t, 1, 2)
	r.s.Run()
	if r.mcps[0].Stats().BarrierResends != 0 {
		t.Fatal("stale reject must not trigger a resend")
	}
	if r.barrierDone(0, 2) != 0 {
		t.Fatal("no barrier should have completed")
	}
}

// TestTokenQueuedAcrossReopen: a barrier token still waiting for the SDMA
// machine when its port is closed and reopened runs in the new generation but
// owes it no completion. Either way the slot must end idle, or the reopened
// port would report a barrier in flight (and, under a watchdog, probe for it
// forever).
func TestTokenQueuedAcrossReopen(t *testing.T) {
	for _, alg := range []BarrierAlg{PE, GB} {
		r := newRig(t, 1, nil)
		r.open(t, 0, 2)
		if err := r.mcps[0].credit(2, BarrierBuffer); err != nil {
			t.Fatal(err)
		}
		if err := r.mcps[0].PostBarrierToken(&BarrierToken{Alg: alg, SrcPort: 2, Root: true}); err != nil {
			t.Fatal(err)
		}
		if err := r.mcps[0].ClosePort(2); err != nil {
			t.Fatal(err)
		}
		r.open(t, 0, 2)
		r.s.Run()
		if done, active := r.barrierDone(0, 2), r.mcps[0].Port(2).slots[barrierSlot].live; done != 0 || active {
			t.Errorf("%v: %d completions, barrier active %v; want 0, false", alg, done, active)
		}
	}
}

// TestSentEventAcrossReopen pins what happens today (ROADMAP item 10(c))
// when a port closes while the RDMA of a send's SentEvent is under way and a
// new program reopens the port: the old program's SentEvent is delivered to
// the new one, and the port's count of sends in flight, zeroed by the open,
// stays at zero rather than going negative, so the new program keeps exactly
// MaxSendTokens sends. Item 10 is to flip the delivery; the count must hold.
func TestSentEventAcrossReopen(t *testing.T) {
	r := newRig(t, 2, func(cfg *Config) { cfg.MaxSendTokens = 1 })
	r.open(t, 0, 2)
	r.open(t, 1, 2)
	r.provide(t, 1, 2, 1)
	m := r.mcps[0]
	if err := m.PostSendToken(SendToken{SrcPort: 2, Dst: Endpoint{Node: 1, Port: 2}, Data: []byte("old")}); err != nil {
		t.Fatal(err)
	}
	// Run until the ack has retired the send: its SentEvent is now on its
	// way to host memory.
	for m.Stats().DataSent == 0 || len(m.conn(1).sentList) != 0 {
		if !r.s.Step() {
			t.Fatal("the send was never acknowledged")
		}
	}
	if n := len(r.events[key(0, 2)]); n != 0 {
		t.Fatalf("the old program received %d events before the close, want 0", n)
	}
	if err := m.ClosePort(2); err != nil {
		t.Fatal(err)
	}
	var got []HostEvent
	if err := m.OpenPort(2, hostFunc(func(ev *HostEvent) { got = append(got, *ev) })); err != nil {
		t.Fatal(err)
	}
	r.s.Run()
	if len(got) != 1 || got[0].Kind != SentEvent || got[0].Failed {
		t.Fatalf("the new program received %v, want the old program's SentEvent", got)
	}
	if n := m.Port(2).sendsInFlight; n != 0 {
		t.Fatalf("%d sends in flight after the old SentEvent, want 0", n)
	}
	ep := Endpoint{Node: 1, Port: 2}
	if err := m.PostSendToken(SendToken{SrcPort: 2, Dst: ep, Data: []byte("new")}); err != nil {
		t.Fatal(err)
	}
	if err := m.PostSendToken(SendToken{SrcPort: 2, Dst: ep, Data: []byte("extra")}); err == nil {
		t.Fatal("the new program got a send token beyond MaxSendTokens")
	}
}

// TestRecvEventAcrossReopen pins what happens today (ROADMAP item 10(c))
// when a port closes while the RDMA of a received message's RecvEvent is
// under way and a new program reopens the port: the old program's message
// is delivered to the new one, payload and sender intact, and counted
// delivered, while the receive buffer it took stays the old program's — the
// open zeroed the port's count, and the new program's first buffer is still
// there after the delivery. Item 10 is to flip the delivery; the count must
// hold.
func TestRecvEventAcrossReopen(t *testing.T) {
	r := newRig(t, 2, nil)
	r.open(t, 0, 2)
	r.open(t, 1, 2)
	r.provide(t, 1, 2, 1)
	m := r.mcps[1]
	if err := r.mcps[0].PostSendToken(SendToken{SrcPort: 2, Dst: Endpoint{Node: 1, Port: 2}, Data: []byte("old")}); err != nil {
		t.Fatal(err)
	}
	// Run until the receiver has taken the message: its RecvEvent is now on
	// its way to host memory.
	for m.Stats().DataRecv == 0 {
		if !r.s.Step() {
			t.Fatal("the message never arrived")
		}
	}
	if n, d := len(r.events[key(1, 2)]), m.Stats().DataDelivered; n != 0 || d != 0 {
		t.Fatalf("the old program received %d events (%d delivered) before the close, want 0", n, d)
	}
	if err := m.ClosePort(2); err != nil {
		t.Fatal(err)
	}
	var got []HostEvent
	if err := m.OpenPort(2, hostFunc(func(ev *HostEvent) { got = append(got, *ev) })); err != nil {
		t.Fatal(err)
	}
	r.provide(t, 1, 2, 1)
	r.s.Run()
	want := Endpoint{Node: 0, Port: 2}
	if len(got) != 1 || got[0].Kind != RecvEvent || got[0].Src != want || string(got[0].Data) != "old" {
		t.Fatalf("the new program received %v, want the old program's RecvEvent from %v", got, want)
	}
	if d := m.Stats().DataDelivered; d != 1 {
		t.Fatalf("%d messages counted delivered, want 1", d)
	}
	if n := m.RecvTokens(2); n != 1 {
		t.Fatalf("the new program has %d receive buffers after the old message, want its 1", n)
	}
}

func TestClearUnexpectedOnOpenVariant(t *testing.T) {
	// The naive Section 3.2 alternative: the record is cleared when the
	// port opens, so the early message is lost and the barrier cannot
	// complete until the peer retries — with unreliable barriers it
	// simply hangs, which is why the paper rejects this design. A reduce
	// partial sent to the closed port is recorded with its payload and
	// cleared the same way: the reopened endpoint's reduce must not complete
	// with a partial sent to its previous life.
	r := newRig(t, 2, func(cfg *Config) { cfg.ClearUnexpectedOnOpen = true })
	r.open(t, 0, 2)
	postPEBarrier(t, r, 0, 2, []Endpoint{{Node: 1, Port: 2}})
	postColl(t, r, 0, &CollToken{Op: Reduce, Parent: Endpoint{Node: 1, Port: 2}, Value: []byte{7, 0, 0, 0, 0, 0, 0, 0}})
	r.s.RunUntil(300 * sim.Microsecond)
	if got := r.mcps[1].Stats().ClosedPortRecs; got != 2 {
		t.Fatalf("%d messages recorded for the closed port, want 2", got)
	}
	r.open(t, 1, 2)
	postPEBarrier(t, r, 1, 2, []Endpoint{{Node: 0, Port: 2}})
	postColl(t, r, 1, &CollToken{Op: Reduce, Root: true, Children: []Endpoint{{Node: 0, Port: 2}}, Value: []byte{5, 0, 0, 0, 0, 0, 0, 0}})
	r.s.Run()
	if r.barrierDone(1, 2) != 0 {
		t.Fatal("clear-on-open should lose the early message and hang the late barrier")
	}
	if done := r.collDone(1, 2); len(done) != 0 {
		t.Fatalf("clear-on-open should lose the early partial and hang the late reduce; it completed with %v", done)
	}
}

func TestReliableBarrierSurvivesLoss(t *testing.T) {
	// Section 4.4's separate reliability mechanism: with 20% random loss
	// the barrier still completes (retransmit timer + barrier acks).
	r := newRig(t, 2, func(cfg *Config) { cfg.ReliableBarrier = true })
	r.open(t, 0, 2)
	r.open(t, 1, 2)
	r.fab.SetFaultHook(randomLoss(0.2, 99))
	postPEBarrier(t, r, 0, 2, []Endpoint{{Node: 1, Port: 2}})
	postPEBarrier(t, r, 1, 2, []Endpoint{{Node: 0, Port: 2}})
	r.s.Run()
	if r.barrierDone(0, 2) != 1 || r.barrierDone(1, 2) != 1 {
		t.Fatalf("reliable barrier under loss: completions = %d/%d",
			r.barrierDone(0, 2), r.barrierDone(1, 2))
	}
}

func TestUnreliableBarrierHangsOnLoss(t *testing.T) {
	// The paper's benchmarked configuration has no barrier retransmission:
	// "a lost barrier message could hang processes indefinitely"
	// (Section 3.3). Drop one barrier packet and observe the hang.
	r := newRig(t, 2, nil)
	r.open(t, 0, 2)
	r.open(t, 1, 2)
	dropped := false
	r.fab.SetFaultHook(dropIf(func(_ network.LinkID, p *network.Packet) bool {
		f, ok := p.Payload.(*Frame)
		if ok && f.Kind == BarrierPEFrame && !dropped {
			dropped = true
			return true
		}
		return false
	}))
	postPEBarrier(t, r, 0, 2, []Endpoint{{Node: 1, Port: 2}})
	postPEBarrier(t, r, 1, 2, []Endpoint{{Node: 0, Port: 2}})
	r.s.Run()
	done := r.barrierDone(0, 2) + r.barrierDone(1, 2)
	if done == 2 {
		t.Fatal("unreliable barrier should hang when a packet is lost")
	}
}

func TestReliableBarrierManyConsecutiveUnderLoss(t *testing.T) {
	r := newRig(t, 2, func(cfg *Config) { cfg.ReliableBarrier = true })
	r.open(t, 0, 2)
	r.open(t, 1, 2)
	r.fab.SetFaultHook(randomLoss(0.1, 7))
	const rounds = 10
	var run func(node, peer, left int)
	run = func(node, peer, left int) {
		if left == 0 {
			return
		}
		if err := r.mcps[node].credit(2, BarrierBuffer); err != nil {
			t.Errorf("buffer: %v", err)
			return
		}
		tok := &BarrierToken{Alg: PE, SrcPort: 2, Peers: []Endpoint{{Node: network.NodeID(peer), Port: 2}}}
		if err := r.mcps[node].PostBarrierToken(tok); err != nil {
			t.Errorf("token: %v", err)
			return
		}
		// Chain the next barrier on completion by watching the event list.
		k := key(node, 2)
		want := rounds - left + 1
		var poll func()
		poll = func() {
			count := 0
			for _, ev := range r.events[k] {
				if ev.Kind == BarrierDoneEvent {
					count++
				}
			}
			if count >= want {
				run(node, peer, left-1)
				return
			}
			r.s.After(10*sim.Microsecond, poll)
		}
		r.s.After(10*sim.Microsecond, poll)
	}
	run(0, 1, rounds)
	run(1, 0, rounds)
	r.s.Run()
	if r.barrierDone(0, 2) != rounds || r.barrierDone(1, 2) != rounds {
		t.Fatalf("completions = %d/%d, want %d each",
			r.barrierDone(0, 2), r.barrierDone(1, 2), rounds)
	}
	if r.mcps[0].Stats().ProtocolErrors != 0 || r.mcps[1].Stats().ProtocolErrors != 0 {
		t.Fatalf("protocol errors under reliable loss: %+v %+v",
			r.mcps[0].Stats(), r.mcps[1].Stats())
	}
}

func TestBarrierAlgString(t *testing.T) {
	if PE.String() != "PE" || GB.String() != "GB" {
		t.Fatal("alg strings wrong")
	}
	if RecvEvent.String() != "recv" || SentEvent.String() != "sent" ||
		BarrierDoneEvent.String() != "barrier-done" || HostEventKind(9).String() == "" {
		t.Fatal("event kind strings wrong")
	}
}

func TestStatsAccessors(t *testing.T) {
	r := newRig(t, 2, nil)
	r.open(t, 0, 2)
	if r.mcps[0].Node() != 0 {
		t.Fatal("Node wrong")
	}
	if r.mcps[0].NIC() == nil {
		t.Fatal("NIC nil")
	}
	p := r.mcps[0].Port(2)
	if !p.Open() || p.num != 2 || r.mcps[0].RecvTokens(2) != 0 || p.slots[barrierSlot].bufs != 0 {
		t.Fatal("port accessors wrong")
	}
}

// toZero routes every frame to switch port 0, node 0's, whoever it is for.
type toZero struct{}

func (toZero) Route(_, _ int) ([]byte, error) { return []byte{0}, nil }

// A packet that reaches a card it is not addressed to is a protocol error
// there and goes back to the pools; the card it names never sees it, since
// the firmware's frame callbacks find their card by the packet's
// destination.
func TestMisaddressedPacketIsAProtocolError(t *testing.T) {
	r := newRig(t, 2, nil)
	r.mcps[0].Attach(r.fab.Iface(0), toZero{})
	r.open(t, 0, 2)
	r.open(t, 1, 2)
	r.provide(t, 1, 2, 1)
	if err := r.mcps[0].PostSendToken(SendToken{SrcPort: 2, Dst: Endpoint{Node: 1, Port: 2}, Data: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	r.s.RunUntil(sim.Millisecond)
	if got := r.mcps[0].Stats().ProtocolErrors; got == 0 {
		t.Error("node 0 took a packet addressed to node 1 without a protocol error")
	}
	if got := r.mcps[1].Stats().DataRecv + r.mcps[0].Stats().DataRecv; got != 0 {
		t.Errorf("%d data frames received, want 0", got)
	}
}

// TestBarrierTokenSize pins the sizes of what the firmware and its host
// allocate per card, per port or per operation, so a field added in the wrong
// place cannot quietly grow one. core.Comm allocates one barrier token per
// neighbourhood it computes and refills it for every barrier; the token is
// read-only to the firmware (88 bytes, the 96-byte class). A slot's operation
// state is allocated once per slot that runs one, PE included (the 176-byte
// class: PE's flag and index sit in padding). A slot is four words, the last
// two its card pointer and its counts, flags and port number, which its
// watchdog's callback reads (timerEvent). A port is 112 bytes: two slots and
// its owner, an interface. A card holds its eight ports, and the block of a
// cluster's cards is one allocation: 1 280 bytes a card. A NIC holds one
// Connection per peer it has talked to, so it holds only what a protocol step
// reads — recovery counts are the NIC's Stats — and is kept to 304 bytes with
// the pointer to its card (the probe flag sits in a sequence number's
// padding): sixteen cells, the chunk of a 16-card block, fill the 4 864-byte
// class exactly. The unexpected-message record's eight slots inside it are
// three bytes each. A run of host credits is 32 bytes: its first doorbell's
// key, the spacing and the count, port and kind. The pooled records that
// carry their card — a posted token, a host event, a data send — are pinned
// at 24, 104 and 56 bytes.
func TestBarrierTokenSize(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"BarrierToken", unsafe.Sizeof(BarrierToken{}), 88},
		{"treeState", unsafe.Sizeof(treeState{}), 176},
		{"treeSlot", unsafe.Sizeof(treeSlot{}), 32},
		{"Port", unsafe.Sizeof(Port{}), 112},
		{"MCP", unsafe.Sizeof(MCP{}), 1280},
		{"Connection", unsafe.Sizeof(Connection{}), 304},
		{"unexpRec", unsafe.Sizeof(unexpRec{}), 4},
		{"creditRun", unsafe.Sizeof(creditRun{}), 32},
		{"postedRec", unsafe.Sizeof(postedRec{}), 24},
		{"hostEvtRec", unsafe.Sizeof(hostEvtRec{}), 104},
		{"sendRec", unsafe.Sizeof(sendRec{}), 56},
	} {
		if c.got > c.want {
			t.Errorf("%s is %d bytes, want <= %d", c.name, c.got, c.want)
		}
	}
}

// TestJitterDrawsMatchRandFloat64 holds the firmware's jitter draw, unitFloat
// on the bare source, to math/rand's Rand.Float64 on the same seed: every
// pinned retransmission instant was drawn from that stream. A source whose
// first value rounds to 1.0 checks the redraw.
func TestJitterDrawsMatchRandFloat64(t *testing.T) {
	for _, node := range []network.NodeID{0, 1, 15, 255} {
		src := network.LinkSource(0x6d6370, network.LinkID(node))
		ref := network.LinkStream(0x6d6370, network.LinkID(node))
		for i := 0; i < 10000; i++ {
			if got, want := unitFloat(src), ref.Float64(); got != want {
				t.Fatalf("node %d, draw %d: %v, math/rand drew %v", node, i, got, want)
			}
		}
	}
	near := func() rand.Source { return &scriptedSource{vals: []int64{1<<63 - 1, 1 << 62}} }
	if got, want := unitFloat(near()), rand.New(near()).Float64(); got != want || got != 0.5 {
		t.Fatalf("after a draw that rounds to 1.0: %v, math/rand drew %v, want 0.5", got, want)
	}
}

// scriptedSource returns vals in turn.
type scriptedSource struct{ vals []int64 }

func (s *scriptedSource) Int63() int64 {
	v := s.vals[0]
	s.vals = s.vals[1:]
	return v
}

func (s *scriptedSource) Seed(int64) {}

// TestConnIndexFindsEveryPair: every card of a 16-card block talks to every
// other, which grows the block's connection index twice past its first size
// (a PE exchange's four peers a card), and every lookup, through the card's
// last connection or the index, finds the one connection of that pair.
func TestConnIndexFindsEveryPair(t *testing.T) {
	const n = 16
	r := newRig(t, n, nil)
	conns := map[[2]network.NodeID]*Connection{}
	for round := 0; round < 2; round++ {
		for _, m := range r.mcps {
			for peer := network.NodeID(0); peer < n; peer++ {
				if peer == m.node {
					continue
				}
				c := m.conn(peer)
				if c.m != m || c.peer != peer {
					t.Fatalf("card %d's conn(%d) is card %d's connection to %d", m.node, peer, c.m.node, c.peer)
				}
				k := [2]network.NodeID{m.node, peer}
				if was, ok := conns[k]; ok && was != c {
					t.Fatalf("card %d's connection to %d moved on round %d", m.node, peer, round)
				}
				conns[k] = c
			}
		}
	}
	ix := &r.mcps[0].connIx
	if ix.used != n*(n-1) || len(ix.slots) != 512 {
		t.Fatalf("index holds %d connections in %d slots, want %d in 512", ix.used, len(ix.slots), n*(n-1))
	}
	for _, m := range r.mcps {
		k := 0
		m.eachConn(func(*Connection) { k++ })
		if k != n-1 {
			t.Fatalf("card %d has %d connections, want %d", m.node, k, n-1)
		}
	}
}
