package fault

import (
	"testing"

	"gmsim/internal/lanai"
	"gmsim/internal/network"
	"gmsim/internal/sim"
)

// recvFunc is a network.Receiver made of a closure.
type recvFunc func(*network.Packet)

func (f recvFunc) HandleDelivered(p *network.Packet) { f(p) }
func (f recvFunc) HandleDropped(*network.Packet)     {}

// runFunc runs the closure a firmware task carries.
func runFunc(a any) { a.(func())() }

// testFabric builds a 2-node fabric and returns it with both ifaces'
// delivery counts wired up.
func testFabric(t *testing.T) (*sim.Simulator, *network.Fabric, []*network.Iface, []*int) {
	t.Helper()
	s := sim.New()
	f := network.New(s, network.Shape{Switches: 1, Ports: 2, NICs: 2})
	sw := f.AddSwitch(network.DefaultSwitchParams(2))
	lp := network.DefaultLinkParams()
	ifaces := make([]*network.Iface, 2)
	counts := make([]*int, 2)
	for i := 0; i < 2; i++ {
		n := new(int)
		counts[i] = n
		ifaces[i] = f.AttachNIC(network.NodeID(i), sw, i, lp, recvFunc(func(p *network.Packet) { *n++ }))
	}
	return s, f, ifaces, counts
}

// attach is Attach for a plan the test built to fit the fabric.
func attach(t *testing.T, p *Plan, fab *network.Fabric, nics map[network.NodeID]*lanai.NIC) *Injector {
	t.Helper()
	inj, err := Attach(p, fab, nics)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// sendOne transmits one packet; node d hangs off port d of the one switch.
func sendOne(iface *network.Iface, src, dst network.NodeID) {
	iface.Transmit(&network.Packet{Route: []byte{byte(dst)}, Src: src, Dst: dst, Size: 64})
}

// TestFlapDropsDuringOutage: packets sent while the link is down vanish;
// packets before and after pass.
func TestFlapDropsDuringOutage(t *testing.T) {
	s, f, ifaces, counts := testFabric(t)
	plan := &Plan{Outages: []Outage{{
		Links:  NodeLinks(1),
		Window: Window{From: sim.FromMicros(10), To: sim.FromMicros(20)},
	}}}
	inj := attach(t, plan, f, nil)

	for _, at := range []float64{1, 12, 15, 25} {
		at := at
		s.At(sim.FromMicros(at), func() { sendOne(ifaces[0], 0, 1) })
	}
	s.Run()
	if *counts[1] != 2 {
		t.Fatalf("delivered %d packets, want 2 (outage should eat the two mid-window sends)", *counts[1])
	}
	c := inj.Counters()
	if c.LinkDowns != 2 || c.Flaps != 1 {
		t.Fatalf("counters = %+v, want LinkDowns=2 Flaps=1", c)
	}
}

// TestLossRuleWindow: a Drop rule with Rate 1 eats everything inside its
// window and nothing outside.
func TestLossRuleWindow(t *testing.T) {
	s, f, ifaces, counts := testFabric(t)
	plan := &Plan{Rules: []Rule{{
		Links:  AllLinks(),
		Window: Window{From: sim.FromMicros(10), To: sim.FromMicros(20)},
		Rate:   1,
		Action: Drop,
	}}}
	inj := attach(t, plan, f, nil)
	for _, at := range []float64{1, 12, 25} {
		at := at
		s.At(sim.FromMicros(at), func() { sendOne(ifaces[0], 0, 1) })
	}
	s.Run()
	if *counts[1] != 2 {
		t.Fatalf("delivered %d, want 2", *counts[1])
	}
	if inj.Counters().Lost != 1 {
		t.Fatalf("Lost = %d, want 1", inj.Counters().Lost)
	}
}

// TestLossRuleExtremes: a Drop rule at rate 1 delivers nothing, rate 0 delivers everything
// (and installs no rule).
func TestLossRuleExtremes(t *testing.T) {
	for _, rate := range []float64{0, 1} {
		s, f, ifaces, counts := testFabric(t)
		inj := attach(t, &Plan{Seed: 7, Rules: []Rule{{Links: AllLinks(), Window: Always, Rate: rate, Action: Drop}}}, f, nil)
		for i := 0; i < 20; i++ {
			sendOne(ifaces[0], 0, 1)
		}
		s.Run()
		want := 20 - 20*int(rate)
		if *counts[1] != want || inj.Counters().Lost != int64(20-want) {
			t.Fatalf("rate %v: delivered %d, lost %d; want %d delivered", rate, *counts[1], inj.Counters().Lost, want)
		}
	}
}

// wirePayload is a WireEncoder payload for corruption tests.
type wirePayload struct{ b []byte }

func (w wirePayload) EncodeWire() []byte { return append([]byte(nil), w.b...) }

// TestCorruptedImageDiffers: the delivered byte image differs from the
// original in at least one bit, and the Corrupt flag stays clear (the
// receiver must find the damage itself).
func TestCorruptedImageDiffers(t *testing.T) {
	s := sim.New()
	f := network.New(s, network.Shape{Switches: 1, Ports: 2, NICs: 2})
	sw := f.AddSwitch(network.DefaultSwitchParams(2))
	lp := network.DefaultLinkParams()
	var got *network.Packet
	if0 := f.AttachNIC(0, sw, 0, lp, recvFunc(func(p *network.Packet) {}))
	f.AttachNIC(1, sw, 1, lp, recvFunc(func(p *network.Packet) { got = p }))
	attach(t, &Plan{Rules: []Rule{{Links: AllLinks(), Window: Always, Rate: 1, Action: Corrupt}}}, f, nil)

	orig := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	s.At(0, func() {
		if0.Transmit(&network.Packet{Route: []byte{1}, Src: 0, Dst: 1, Size: 64, Payload: wirePayload{b: orig}})
	})
	s.Run()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	img, ok := got.Payload.([]byte)
	if !ok {
		t.Fatalf("payload is %T, want mangled []byte", got.Payload)
	}
	same := len(img) == len(orig)
	if same {
		for i := range img {
			if img[i] != orig[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("corrupted image identical to original")
	}
	if got.Corrupt {
		t.Fatal("Corrupt flag set on an encodable payload: receiver decode path bypassed")
	}
}

// TestTruncateShrinksAndFlags: truncation cuts the size and sets Corrupt,
// leaving the payload structure readable.
func TestTruncateShrinksAndFlags(t *testing.T) {
	s := sim.New()
	f := network.New(s, network.Shape{Switches: 1, Ports: 2, NICs: 2})
	sw := f.AddSwitch(network.DefaultSwitchParams(2))
	lp := network.DefaultLinkParams()
	var got *network.Packet
	if0 := f.AttachNIC(0, sw, 0, lp, recvFunc(func(p *network.Packet) {}))
	f.AttachNIC(1, sw, 1, lp, recvFunc(func(p *network.Packet) { got = p }))
	inj := attach(t, &Plan{Rules: []Rule{{Links: AllLinks(), Window: Always, Rate: 1, Action: Truncate}}}, f, nil)

	s.At(0, func() {
		if0.Transmit(&network.Packet{Route: []byte{1}, Src: 0, Dst: 1, Size: 64, Payload: "hdr"})
	})
	s.Run()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if !got.Corrupt {
		t.Fatal("truncated packet not flagged Corrupt")
	}
	if got.Size >= 64 {
		t.Fatalf("size %d not shrunk", got.Size)
	}
	if got.Payload != "hdr" {
		t.Fatal("truncation must leave the in-memory header readable")
	}
	if inj.Counters().Truncated != 1 {
		t.Fatalf("Truncated = %d, want 1", inj.Counters().Truncated)
	}
}

// TestDuplicateDelivers: a Duplicate rule at rate 1 delivers two copies.
func TestDuplicateDelivers(t *testing.T) {
	s, f, ifaces, counts := testFabric(t)
	inj := attach(t, &Plan{Rules: []Rule{{Links: NodeLinks(1), Window: Always, Rate: 1, Action: Duplicate}}}, f, nil)
	s.At(0, func() { sendOne(ifaces[0], 0, 1) })
	s.Run()
	// The cable has two directed channels; only the Rx direction carries
	// this packet, and each hop with rate 1 duplicates once.
	if *counts[1] < 2 {
		t.Fatalf("delivered %d, want >= 2", *counts[1])
	}
	if inj.Counters().Duplicated == 0 {
		t.Fatal("no duplications counted")
	}
}

// TestStallFreezesNIC: an injected stall pushes the NIC's next task out by
// the stall duration: queued at 10 µs behind the 5–105 µs stall, the 1 µs
// task completes at exactly 106 µs.
func TestStallFreezesNIC(t *testing.T) {
	s := sim.New()
	f := network.New(s, network.Shape{Switches: 1, Ports: 2, NICs: 2})
	sw := f.AddSwitch(network.DefaultSwitchParams(2))
	lp := network.DefaultLinkParams()
	f.AttachNIC(0, sw, 0, lp, recvFunc(func(p *network.Packet) {}))
	f.AttachNIC(1, sw, 1, lp, recvFunc(func(p *network.Packet) {}))
	nic := lanai.NewNIC(s, lanai.LANai43())
	plan := &Plan{Stalls: []Stall{{Node: 0, At: sim.FromMicros(5), For: sim.FromMicros(100)}}}
	attach(t, plan, f, map[network.NodeID]*lanai.NIC{0: nic, 1: lanai.NewNIC(s, lanai.LANai43())})

	var ran sim.Time
	s.At(sim.FromMicros(10), func() {
		nic.ExecTaggedCall(33, "fw", runFunc, func() { ran = s.Now() }) // 33 cycles = 1 µs on a 4.3
	})
	s.Run()
	if ran != sim.FromMicros(106) {
		t.Fatalf("task completed at %v, want 106µs (stall end plus the 1 µs task)", ran)
	}
	if nic.Stalls() != 1 {
		t.Fatalf("stalls = %d, want 1", nic.Stalls())
	}
}

// TestRulesApplyInPlanOrder: one hop walks the link's rules in plan order.
// A Drop hit ends the walk, so a rule listed after it is never drawn; a
// rule listed before it applies first. A rule outside its window draws
// nothing from the link's stream.
func TestRulesApplyInPlanOrder(t *testing.T) {
	hop := func(rules ...Rule) (network.Verdict, Counters) {
		_, f, _, _ := testFabric(t)
		inj := attach(t, &Plan{Seed: 3, Rules: rules}, f, nil)
		v := inj.OnHop(0, &network.Packet{Size: 64})
		return v, inj.Counters()
	}
	drop := Rule{Links: AllLinks(), Window: Always, Rate: 1, Action: Drop}
	dup := Rule{Links: AllLinks(), Window: Always, Rate: 1, Action: Duplicate}

	v, c := hop(drop, dup)
	if !v.Drop || c.Lost != 1 || c.Duplicated != 0 {
		t.Errorf("[drop, dup]: verdict %+v, counters %+v; want a drop, Lost 1, Duplicated 0", v, c)
	}
	v, c = hop(dup, drop)
	if !v.Drop || c.Lost != 1 || c.Duplicated != 1 {
		t.Errorf("[dup, drop]: verdict %+v, counters %+v; want a drop, Lost 1, Duplicated 1", v, c)
	}

	// A drop rule that opens later, ahead of a duplicate rule that is
	// always open: only the duplicate rule draws, once per hop.
	const seed, hops = 11, 5
	_, f, _, _ := testFabric(t)
	late := Rule{Links: AllLinks(), Window: Window{From: sim.FromMicros(100)}, Rate: 0.5, Action: Drop}
	inj := attach(t, &Plan{Seed: seed, Rules: []Rule{late, dup}}, f, nil)
	const link network.LinkID = 0
	for i := 0; i < hops; i++ {
		if v := inj.OnHop(link, &network.Packet{Size: 64}); v.Drop || !v.Duplicate {
			t.Fatalf("hop %d at t=0: verdict %+v, want a duplicate only", i, v)
		}
	}
	fresh := network.LinkStream(seed, link)
	for i := 0; i < hops; i++ {
		fresh.Float64()
	}
	if got, want := inj.rules[link].rng.Float64(), fresh.Float64(); got != want {
		t.Fatalf("link stream after %d hops draws %v, want %v: the closed rule drew", hops, got, want)
	}
}

// TestPerLinkStreamsIndependent: the fault decisions on one link are a
// pure function of (seed, link, hops over that link) — injecting traffic
// on another link must not change them.
func TestPerLinkStreamsIndependent(t *testing.T) {
	runTx := func(crossTraffic bool) int {
		s := sim.New()
		f := network.New(s, network.Shape{Switches: 1, Ports: 3, NICs: 3})
		sw := f.AddSwitch(network.DefaultSwitchParams(3))
		lp := network.DefaultLinkParams()
		got := 0
		if0 := f.AttachNIC(0, sw, 0, lp, recvFunc(func(p *network.Packet) {}))
		f.AttachNIC(1, sw, 1, lp, recvFunc(func(p *network.Packet) { got++ }))
		if2 := f.AttachNIC(2, sw, 2, lp, recvFunc(func(p *network.Packet) {}))
		// Loss only on node 0's transmit channel: flow C never touches it.
		attach(t, &Plan{Seed: 7, Rules: []Rule{{
			Links: Selector{Node: 0, Dir: TxOnly}, Window: Always, Rate: 0.4, Action: Drop,
		}}}, f, nil)
		for i := 0; i < 60; i++ {
			i := i
			s.At(sim.FromMicros(float64(10*i)), func() {
				sendOne(if0, 0, 1)
				if crossTraffic && i%2 == 0 {
					sendOne(if2, 2, 1)
				}
			})
		}
		s.Run()
		return got
	}
	alone := runTx(false)
	shared := runTx(true)
	// Flow C adds 30 packets, none subject to loss; flow A's survivors are
	// decided by node 0's Tx stream alone, so exactly 30 extra arrive.
	if shared != alone+30 {
		t.Fatalf("cross traffic perturbed flow A's drop pattern: alone=%d shared=%d", alone, shared)
	}
	if alone == 0 || alone == 60 {
		t.Fatalf("loss rate 0.4 produced degenerate survivor count %d", alone)
	}
}

// TestEmptyPlanIsFree: attaching an empty plan changes nothing — same
// deliveries at the same times as no plan at all.
func TestEmptyPlanIsFree(t *testing.T) {
	run := func(withPlan bool) []sim.Time {
		s := sim.New()
		f := network.New(s, network.Shape{Switches: 1, Ports: 2, NICs: 2})
		sw := f.AddSwitch(network.DefaultSwitchParams(2))
		lp := network.DefaultLinkParams()
		var times []sim.Time
		if0 := f.AttachNIC(0, sw, 0, lp, recvFunc(func(p *network.Packet) {}))
		f.AttachNIC(1, sw, 1, lp, recvFunc(func(p *network.Packet) { times = append(times, s.Now()) }))
		if withPlan {
			attach(t, &Plan{Seed: 99}, f, nil)
		}
		for i := 0; i < 10; i++ {
			i := i
			s.At(sim.FromMicros(float64(5*i)), func() { sendOne(if0, 0, 1) })
		}
		s.Run()
		return times
	}
	without := run(false)
	with := run(true)
	if len(without) != len(with) {
		t.Fatalf("delivery counts differ: %d vs %d", len(without), len(with))
	}
	for i := range without {
		if without[i] != with[i] {
			t.Fatalf("delivery %d time differs: %v vs %v", i, without[i], with[i])
		}
	}
}

// TestPlanCloneIsDeep: extending a clone's rules leaves the base alone.
func TestPlanCloneIsDeep(t *testing.T) {
	base := &Plan{Seed: 1, Rules: []Rule{{Links: AllLinks(), Window: Always, Rate: 0.01}}}
	c := base.Clone()
	c.Rules = append(c.Rules, Rule{Links: NodeLinks(3), Window: Always, Rate: 0.5, Action: Duplicate})
	c.Rules[0].Rate = 0.9
	if len(base.Rules) != 1 || base.Rules[0].Rate != 0.01 {
		t.Fatalf("clone aliased the base plan: %+v", base.Rules)
	}
	if base.Empty() {
		t.Fatal("base with a rule reported Empty")
	}
	if !(&Plan{Seed: 5}).Empty() {
		t.Fatal("seed-only plan should be Empty")
	}
}
