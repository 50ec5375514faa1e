package network

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"gmsim/internal/sim"
)

// Differential tests for the one-event hop. A fabric with nothing installed
// that rules on hops schedules each hop's follow-up straight from the
// upstream transmit; a fabric with a fault hook runs an arrival event per
// hop, the form every hop had before. The same traffic through both must be
// indistinguishable to everything that can look at a fabric.

// passHook is a FaultHook that lets everything through and counts what it
// was shown, per packet (Payload is the packet's index).
type passHook struct {
	total int
	hops  map[int]int
}

func (h *passHook) OnHop(_ LinkID, p *Packet) Verdict {
	h.total++
	h.hops[p.Payload.(int)]++
	return Verdict{}
}

// fabricLog records every observer callback with its instant, one list per
// callback so each keeps its global order.
type fabricLog struct {
	s                            *sim.Simulator
	injected, dropped, forwarded []string
	delivered                    []delivery
	deliveredAt                  map[int]sim.Time
}

type delivery struct {
	at  sim.Time
	pkt int
	nic NodeID
}

func (l *fabricLog) PacketInjected(p *Packet) {
	l.injected = append(l.injected, fmt.Sprintf("t=%d pkt%d route=%v", l.s.Now(), p.Payload, p.Route))
}

func (l *fabricLog) PacketDelivered(p *Packet) {
	l.delivered = append(l.delivered, delivery{l.s.Now(), p.Payload.(int), p.Dst})
	l.deliveredAt[p.Payload.(int)] = l.s.Now()
}

func (l *fabricLog) PacketDropped(p *Packet, reason string) {
	l.dropped = append(l.dropped, fmt.Sprintf("t=%d pkt%d %s left=%v", l.s.Now(), p.Payload, reason, p.Route))
}

func (l *fabricLog) PacketForwarded(p *Packet, swID, port int) {
	l.forwarded = append(l.forwarded, fmt.Sprintf("t=%d pkt%d sw%d port%d", l.s.Now(), p.Payload, swID, port))
}

func (l *fabricLog) FaultInjected(string, *Packet, string) {}

// perNIC splits the delivery log by receiving NIC, keeping order.
func (l *fabricLog) perNIC() map[NodeID][]delivery {
	out := make(map[NodeID][]delivery)
	for _, d := range l.delivered {
		out[d.nic] = append(out[d.nic], d)
	}
	return out
}

// threeTier builds 12 NICs on a three-tier tree: four leaf switches of three
// NICs, two middle switches, one top. Switch IDs: top 0, middles 1-2,
// leaves 3-6; port 0 is the uplink, ports 1.. go down. NICs on different
// halves are five switches apart and share the top's two trunks. Every
// switch has the same parameters, as in every cluster the harness builds;
// trunks are slower than NIC cables.
func threeTier(s *sim.Simulator) *Fabric {
	f := New(s, Shape{Switches: 7, Ports: 7 * 8, NICs: 12, Trunks: 6})
	sp := DefaultSwitchParams(8)
	cable := DefaultLinkParams()
	trunk := LinkParams{BandwidthMBps: 160, Latency: 450 * sim.Nanosecond}
	top := f.AddSwitch(sp)
	mids := []*Switch{f.AddSwitch(sp), f.AddSwitch(sp)}
	for m, mid := range mids {
		f.ConnectSwitches(mid, 0, top, m+1, trunk)
	}
	for l := 0; l < 4; l++ {
		leaf := f.AddSwitch(sp)
		f.ConnectSwitches(leaf, 0, mids[l/2], 1+l%2, trunk)
		for k := 0; k < 3; k++ {
			f.AttachNIC(NodeID(3*l+k), leaf, 1+k, cable, nil)
		}
	}
	return f
}

// threeTierRoute is the source route between two NICs of threeTier (the
// fabric itself computes none): up port 0 to the lowest switch above both,
// then down by the destination's middle (top ports 1-2), leaf (middle ports
// 1-2) and NIC (leaf ports 1-3).
func threeTierRoute(src, dst NodeID) []byte {
	sl, dl := int(src)/3, int(dst)/3
	down := []byte{byte(1 + dl/2), byte(1 + dl%2), byte(1 + int(dst)%3)}
	switch {
	case sl == dl:
		return down[2:]
	case sl/2 == dl/2:
		return append([]byte{0}, down[1:]...)
	default:
		return append([]byte{0, 0}, down...)
	}
}

// diffPacket is one packet of the differential traffic.
type diffPacket struct {
	at       sim.Time
	src, dst NodeID
	size     int
	route    []byte // as injected
}

// brokenAt is when the first broken route is injected: long after the rest
// has drained, so the drop instants can be stated outright.
const brokenAt = 2 * sim.Millisecond

// diffTraffic is the fixed traffic both runs carry, in sizes drawn from the
// given list: seeded background traffic on a 50 ns grid (so unrelated
// packets do meet at the same instant), two same-instant bursts at one NIC
// behind the far trunk — nine packets racing for the top's down trunk, the
// last trunk and then the NIC's own port — and, on a quiet fabric, five
// packets with broken routes next to an intact twin. The second result
// indexes those six by what breaks.
func diffTraffic(sizes []int) ([]diffPacket, map[string]int) {
	rng := rand.New(rand.NewSource(20011))
	var pkts []diffPacket
	add := func(at sim.Time, src, dst NodeID, size int, r []byte) int {
		pkts = append(pkts, diffPacket{at: at, src: src, dst: dst, size: size, route: r})
		return len(pkts) - 1
	}
	for i := 0; i < 240; i++ {
		src := NodeID(rng.Intn(12))
		dst := NodeID(rng.Intn(11))
		if dst >= src {
			dst++
		}
		add(sim.Time(rng.Intn(1600))*50, src, dst, sizes[rng.Intn(len(sizes))], threeTierRoute(src, dst))
	}
	for _, at := range []sim.Time{5000, 42000} {
		for src := NodeID(0); src < 9; src++ {
			add(at, src, 11, sizes[int(src)%len(sizes)], threeTierRoute(src, 11))
		}
	}
	// far: leaf up, middle up, top down, middle down, leaf to NIC. The
	// broken routes go one at a time.
	far := threeTierRoute(0, 11)
	const gap = 20 * sim.Microsecond
	broken := map[string]int{
		"bad-first":  add(brokenAt, 0, 11, 64, []byte{7}),
		"switchless": add(brokenAt+gap, 3, 11, 64, nil),
		"bad-deep":   add(brokenAt+2*gap, 1, 11, 64, []byte{far[0], far[1], 7, far[3], far[4]}),
		"exhausted":  add(brokenAt+3*gap, 2, 11, 64, far[:2]),
		"left-over":  add(brokenAt+4*gap, 0, 11, 64, append(slices.Clone(far), 1)),
		"good-twin":  add(brokenAt+5*gap, 0, 11, 64, far),
	}
	return pkts, broken
}

// diffRun is one run of the differential traffic.
type diffRun struct {
	log    *fabricLog
	hook   *passHook
	fab    *Fabric
	pkts   []diffPacket
	broken map[string]int
}

// runDiff carries the traffic across a fresh three-tier fabric, with the
// pass-through hook when hooked is set.
func runDiff(hooked bool, sizes []int) diffRun {
	s := sim.New()
	f := threeTier(s)
	log := &fabricLog{s: s, deliveredAt: make(map[int]sim.Time)}
	f.SetObserver(log)
	pkts, broken := diffTraffic(sizes)
	for i, dp := range pkts {
		p := &Packet{Src: dp.src, Dst: dp.dst, Size: dp.size, Payload: i}
		p.SetRoute(dp.route)
		iface := f.Iface(dp.src)
		s.At(dp.at, func() { iface.Transmit(p) })
	}
	hook := &passHook{hops: make(map[int]int)}
	if hooked {
		// Installed with every transmit still ahead: it must see every hop.
		f.SetFaultHook(hook)
	}
	s.Run()
	return diffRun{log: log, hook: hook, fab: f, pkts: pkts, broken: broken}
}

// mixedSizes spans 100 ns to 6.4 µs of wire time; oneSize is what barrier
// traffic looks like, every frame of a barrier kind being one size.
var (
	mixedSizes = []int{16, 64, 64, 128, 256, 1024}
	oneSize    = []int{64}
)

func TestOneEventHopMatchesArrivalEvents(t *testing.T) {
	plain, slow := runDiff(false, mixedSizes), runDiff(true, mixedSizes)
	pkts, broken := plain.pkts, plain.broken

	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"injections", plain.log.injected, slow.log.injected},
		{"drops (instant, reason, route left)", plain.log.dropped, slow.log.dropped},
		{"forwarding decisions (instant, switch, port)", plain.log.forwarded, slow.log.forwarded},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s differ:\n one event per hop: %v\n arrival events:    %v", c.what, c.got, c.want)
		}
	}
	// Deliveries: every packet at its instant, every NIC its packets in its
	// order. (Across NICs, same-instant deliveries of packets with different
	// wire times may run in either order — see packet.go, "Events per hop";
	// TestOneEventHopGlobalOrder pins the whole order for one-size traffic.)
	if !maps.Equal(plain.log.deliveredAt, slow.log.deliveredAt) {
		t.Errorf("delivery instants differ:\n one event per hop: %v\n arrival events:    %v",
			plain.log.delivered, slow.log.delivered)
	}
	pn, sn := plain.log.perNIC(), slow.log.perNIC()
	for nic := NodeID(0); nic < 12; nic++ {
		if !slices.Equal(pn[nic], sn[nic]) {
			t.Errorf("NIC %d delivery order differs:\n one event per hop: %v\n arrival events:    %v", nic, pn[nic], sn[nic])
		}
	}
	if plain.fab.Delivered() != slow.fab.Delivered() || plain.fab.Dropped() != slow.fab.Dropped() {
		t.Errorf("counters differ: delivered %d/%d dropped %d/%d",
			plain.fab.Delivered(), slow.fab.Delivered(), plain.fab.Dropped(), slow.fab.Dropped())
	}
	if got := plain.fab.Delivered() + plain.fab.Dropped(); got != int64(len(pkts)) {
		t.Errorf("%d packets accounted for, sent %d", got, len(pkts))
	}

	// The broken routes drop where and when they always did: at the head's
	// arrival at the switch that cannot forward it (300 ns of cable, then
	// 300 ns of crossbar and 450 ns of trunk per further switch), or at the
	// tail's arrival at the NIC.
	const t0, gap = int64(brokenAt), 20000
	wantDrops := []string{
		fmt.Sprintf("t=%d pkt%d bad-route-port-7 left=[]", t0+300, broken["bad-first"]),
		fmt.Sprintf("t=%d pkt%d route-exhausted-at-switch left=[]", t0+gap+300, broken["switchless"]),
		fmt.Sprintf("t=%d pkt%d bad-route-port-7 left=[2 3]", t0+2*gap+300+2*750, broken["bad-deep"]),
		fmt.Sprintf("t=%d pkt%d route-exhausted-at-switch left=[]", t0+3*gap+300+2*750, broken["exhausted"]),
		fmt.Sprintf("t=%d pkt%d route-left-over-at-nic left=[1]", t0+4*gap+300+4*750+300+300+400, broken["left-over"]),
	}
	if !slices.Equal(plain.log.dropped, wantDrops) {
		t.Errorf("drops:\n got  %v\n want %v", plain.log.dropped, wantDrops)
	}
	if _, ok := plain.log.deliveredAt[broken["good-twin"]]; !ok {
		t.Error("the intact twin of the broken routes was not delivered")
	}

	// The traffic did contend: forwarding decisions that share an instant, a
	// switch and an output port, and deliveries that ran late.
	seen := make(map[string]int)
	ties := 0
	for _, line := range plain.log.forwarded {
		var at, id, sw, port int
		if _, err := fmt.Sscanf(line, "t=%d pkt%d sw%d port%d", &at, &id, &sw, &port); err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprint(at, sw, port)
		if seen[key]++; seen[key] == 2 {
			ties++
		}
	}
	if ties < 4 {
		t.Errorf("only %d same-instant races for one output port: the traffic is not contended enough", ties)
	}
	late := 0
	for i, dp := range pkts {
		at, ok := plain.log.deliveredAt[i]
		if !ok {
			continue
		}
		// Uncontended: cable up, trunks between switches, cable down, a
		// RouteDelay per switch, one serialization.
		k := sim.Time(len(dp.route))
		free := dp.at + 2*300 + (k-1)*450 + k*300 + DefaultLinkParams().wireTime(dp.size)
		if at < free {
			t.Errorf("pkt%d delivered at %d, before its uncontended %d", i, at, free)
		}
		if at > free {
			late++
		}
	}
	if late < 40 {
		t.Errorf("only %d packets were delayed by contention", late)
	}

	// The hook saw every hop of every packet; the plain run spent an event
	// on none of them, except the four heads a switch dropped on arrival.
	for i, dp := range pkts {
		want := len(dp.route) + 1
		switch i {
		case broken["bad-first"], broken["switchless"]:
			want = 1
		case broken["bad-deep"], broken["exhausted"]:
			want = 3
		case broken["left-over"]:
			want = len(dp.route) // all the way to the NIC, one byte too many
		}
		if slow.hook.hops[i] != want {
			t.Errorf("pkt%d: hook saw %d hops, want %d", i, slow.hook.hops[i], want)
		}
	}
	pe, se := plain.fab.Sim().Executed(), slow.fab.Sim().Executed()
	if pe >= se {
		t.Errorf("one event per hop executed %d events, arrival events %d", pe, se)
	}
	if got, want := se-pe, int64(slow.hook.total)-4; got != want {
		t.Errorf("saved %d events, want one per hop that was not dropped on arrival = %d", got, want)
	}
}

// TestOneEventHopGlobalOrder: when every packet has one wire time, as the
// frames of a barrier do, the whole delivery log — instants and the order of
// same-instant deliveries across the fabric — is the arrival-event form's.
func TestOneEventHopGlobalOrder(t *testing.T) {
	plain, slow := runDiff(false, oneSize), runDiff(true, oneSize)
	if !slices.Equal(plain.log.delivered, slow.log.delivered) {
		t.Errorf("delivery logs differ:\n one event per hop: %v\n arrival events:    %v",
			plain.log.delivered, slow.log.delivered)
	}
	if !slices.Equal(plain.log.forwarded, slow.log.forwarded) {
		t.Error("forwarding decisions differ")
	}
	sameInstant := 0
	for i := 1; i < len(plain.log.delivered); i++ {
		if a, b := plain.log.delivered[i-1], plain.log.delivered[i]; a.at == b.at && a.nic != b.nic {
			sameInstant++
		}
	}
	if sameInstant < 3 {
		t.Errorf("only %d same-instant deliveries at different NICs: the order is not exercised", sameInstant)
	}
}

// TestHookRulesOnHopsStartedAfterInstall pins what SetFaultHook documents: a
// hop already under way when the hook is installed completes unruled, every
// later hop of the same packet is ruled on.
func TestHookRulesOnHopsStartedAfterInstall(t *testing.T) {
	tn := newTestNet(2, DefaultLinkParams(), DefaultSwitchParams(2))
	hook := &passHook{hops: make(map[int]int)}
	p := tn.send(0, 1, 64)
	p.Payload = 0
	tn.s.At(100, func() { tn.f.SetFaultHook(hook) }) // head is on the first cable until 300
	tn.s.Run()
	if len(tn.recvd[1]) != 1 {
		t.Fatal("packet not delivered")
	}
	if hook.total != 1 {
		t.Fatalf("hook ruled on %d hops, want only the switch-to-NIC hop", hook.total)
	}
}
