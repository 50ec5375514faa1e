package fault

import (
	"fmt"
	"strings"
	"testing"

	"gmsim/internal/lanai"
	"gmsim/internal/network"
	"gmsim/internal/sim"
)

// crashFabric builds a 3-node single-switch fabric with one NIC per node.
func crashFabric(t *testing.T) (*sim.Simulator, *network.Fabric, []*network.Iface, []*int, map[network.NodeID]*lanai.NIC) {
	t.Helper()
	s := sim.New()
	f := network.New(s, network.Shape{Switches: 1, Ports: 3, NICs: 3})
	sw := f.AddSwitch(network.DefaultSwitchParams(3))
	lp := network.DefaultLinkParams()
	ifaces := make([]*network.Iface, 3)
	counts := make([]*int, 3)
	nics := make(map[network.NodeID]*lanai.NIC, 3)
	for i := 0; i < 3; i++ {
		n := new(int)
		counts[i] = n
		ifaces[i] = f.AttachNIC(network.NodeID(i), sw, i, lp, recvFunc(func(p *network.Packet) { *n++ }))
		nics[network.NodeID(i)] = lanai.NewNIC(s, lanai.LANai43())
	}
	return s, f, ifaces, counts, nics
}

// TestCrashFailStopsNode: at the crash instant the NIC halts, both cable
// directions go permanently down, and the crash hook fires on the node's
// loop. The NIC's own dead flag is the record of the crash.
func TestCrashFailStopsNode(t *testing.T) {
	s, f, ifaces, counts, nics := crashFabric(t)
	plan := &Plan{Crashes: []Crash{{Node: 2, At: sim.FromMicros(10)}}}
	inj := attach(t, plan, f, nics)

	var hooked []network.NodeID
	var hookedAt sim.Time
	inj.OnNodeCrash(func(n network.NodeID) {
		hooked = append(hooked, n)
		hookedAt = s.Now()
	})

	// Before the crash traffic flows both ways; after it, silence.
	s.At(sim.FromMicros(1), func() { sendOne(ifaces[0], 0, 2) })
	s.At(sim.FromMicros(20), func() { sendOne(ifaces[0], 0, 2) }) // into the corpse
	s.At(sim.FromMicros(21), func() { sendOne(ifaces[2], 2, 0) }) // out of the corpse
	s.At(sim.FromMicros(22), func() { sendOne(ifaces[0], 0, 1) }) // bystanders unaffected
	s.Run()

	if *counts[2] != 1 || *counts[0] != 0 || *counts[1] != 1 {
		t.Fatalf("deliveries = [%d %d %d], want [0 1 1]", *counts[0], *counts[1], *counts[2])
	}
	if !nics[2].Dead() {
		t.Error("crashed NIC not dead")
	}
	if nics[0].Dead() || nics[1].Dead() {
		t.Error("bystander NIC died")
	}
	if len(hooked) != 1 || hooked[0] != 2 || hookedAt != sim.FromMicros(10) {
		t.Errorf("crash hook: nodes %v at %v, want [2] at 10µs", hooked, hookedAt)
	}
	c := inj.Counters()
	if c.Crashes != 1 || c.LinkDowns != 2 {
		t.Errorf("counters = %+v, want Crashes=1 LinkDowns=2", c)
	}
	nl, _ := f.NICLinkIDs(2)
	for _, l := range []network.LinkID{nl.Tx, nl.Rx} {
		if v := inj.OnHop(l, &network.Packet{Size: 64}); !v.Drop || v.Reason != "link-down" {
			t.Errorf("hop over the crashed node's link %d: verdict %+v, want a link-down drop", l, v)
		}
	}
}

// TestSwitchCrashPartitionsEverything: a dead switch downs every channel
// touching it; on a single-switch fabric nothing is delivered afterwards.
func TestSwitchCrashPartitionsEverything(t *testing.T) {
	s, f, ifaces, counts, _ := crashFabric(t)
	plan := &Plan{SwitchCrashes: []SwitchCrash{{Switch: 0, At: sim.FromMicros(10)}}}
	inj := attach(t, plan, f, nil)

	s.At(sim.FromMicros(1), func() { sendOne(ifaces[0], 0, 1) })
	s.At(sim.FromMicros(20), func() { sendOne(ifaces[0], 0, 1) })
	s.At(sim.FromMicros(21), func() { sendOne(ifaces[2], 2, 0) })
	s.Run()

	if *counts[1] != 1 || *counts[0] != 0 {
		t.Fatalf("deliveries = [%d %d], want [0 1]", *counts[0], *counts[1])
	}
	if c := inj.Counters(); c.SwitchCrashes != 1 {
		t.Errorf("SwitchCrashes = %d, want 1", c.SwitchCrashes)
	}
}

// TestCutIsPermanent: an open-ended outage (a cut) keeps the link down
// forever; the directional selectors cut only one channel.
func TestCutIsPermanent(t *testing.T) {
	s, f, ifaces, counts, _ := crashFabric(t)
	plan := &Plan{Outages: []Outage{{
		Links:  Selector{Node: 1, Dir: RxOnly},
		Window: Window{From: sim.FromMicros(10)},
	}}}
	inj := attach(t, plan, f, nil)

	s.At(sim.FromMicros(1), func() { sendOne(ifaces[0], 0, 1) })
	s.At(sim.FromMicros(20), func() { sendOne(ifaces[0], 0, 1) }) // rx cut: dropped
	s.At(sim.FromMicros(21), func() { sendOne(ifaces[1], 1, 0) }) // tx still up
	s.At(sim.FromMicros(10000), func() { sendOne(ifaces[0], 0, 1) })
	s.Run()

	if *counts[1] != 1 || *counts[0] != 1 {
		t.Fatalf("deliveries = [%d %d], want [1 1]", *counts[0], *counts[1])
	}
	if c := inj.Counters(); c.Cuts != 1 || c.Flaps != 0 || c.LinkDowns != 2 {
		t.Errorf("counters = %+v, want Cuts=1 Flaps=0 LinkDowns=2", c)
	}
}

// TestAttachCheckedErrors: plans that do not fit the fabric come back as
// errors, not panics.
func TestAttachCheckedErrors(t *testing.T) {
	cases := []struct {
		name string
		plan *Plan
		want string
	}{
		{"bad-rate", &Plan{Rules: []Rule{{Links: AllLinks(), Rate: 1.5}}}, "outside [0,1]"},
		{"crash-no-nic", &Plan{Crashes: []Crash{{Node: 7}}}, "no NIC"},
		{"stall-no-nic", &Plan{Stalls: []Stall{{Node: 7}}}, "no NIC"},
		{"bad-switch", &Plan{SwitchCrashes: []SwitchCrash{{Switch: 5}}}, "fabric has"},
		{"bad-selector-node", &Plan{Outages: []Outage{{Links: Selector{Node: 42}}}}, "no NIC"},
		{"double-crash", &Plan{Crashes: []Crash{{Node: 1}, {Node: 1, At: 5}}}, "more than once"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, f, _, _, nics := crashFabric(t)
			_, err := Attach(c.plan, f, nics)
			if !strings.Contains(fmt.Sprint(err), c.want) {
				t.Fatalf("Attach = %v, want error containing %q", err, c.want)
			}
		})
	}
}

// TestValidateRejections walks the structural checks rule kind by rule kind.
func TestValidateRejections(t *testing.T) {
	bad := []struct {
		name string
		plan *Plan
	}{
		{"rule-nan", &Plan{Rules: []Rule{{Links: AllLinks(), Rate: nan()}}}},
		{"rule-negative-rate", &Plan{Rules: []Rule{{Links: AllLinks(), Rate: -0.1, Action: Corrupt}}}},
		{"rule-rate-above-one", &Plan{Rules: []Rule{{Links: AllLinks(), Rate: 2, Action: Duplicate}}}},
		{"rule-action-negative", &Plan{Rules: []Rule{{Links: AllLinks(), Rate: 0.5, Action: -1}}}},
		{"rule-action-unknown", &Plan{Rules: []Rule{{Links: AllLinks(), Rate: 0.5, Action: Duplicate + 1}}}},
		{"inverted-window", &Plan{Rules: []Rule{{Links: AllLinks(), Rate: 0.5, Window: Window{From: 10, To: 5}}}}},
		{"negative-window", &Plan{Rules: []Rule{{Links: AllLinks(), Rate: 0.5, Window: Window{From: -1}, Action: Duplicate}}}},
		{"negative-node", &Plan{Rules: []Rule{{Links: Selector{Node: -2}, Rate: 0.5, Action: Truncate}}}},
		{"bad-dir", &Plan{Rules: []Rule{{Links: Selector{Dir: 9}, Rate: 0.5}}}},
		{"outage-negative", &Plan{Outages: []Outage{{Links: AllLinks(), Window: Window{From: -1}}}}},
		{"outage-inverted", &Plan{Outages: []Outage{{Links: AllLinks(), Window: Window{From: 10, To: 5}}}}},
		{"outage-bad-dir", &Plan{Outages: []Outage{{Links: Selector{Node: 1, Dir: -1}}}}},
		{"crash-negative-node", &Plan{Crashes: []Crash{{Node: -1}}}},
		{"crash-negative-time", &Plan{Crashes: []Crash{{Node: 1, At: -1}}}},
		{"swcrash-negative", &Plan{SwitchCrashes: []SwitchCrash{{Switch: -1}}}},
		{"swcrash-negative-time", &Plan{SwitchCrashes: []SwitchCrash{{Switch: 1, At: -1}}}},
		{"stall-negative", &Plan{Stalls: []Stall{{Node: 1, For: -1}}}},
	}
	for _, c := range bad {
		if err := c.plan.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, c.plan)
		}
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(); err != nil {
		t.Errorf("nil plan: %v", err)
	}
	ok := &Plan{
		Rules:   []Rule{{Links: NodeLinks(1), Window: Always, Rate: 0.5, Action: Truncate}},
		Outages: []Outage{{Links: AllLinks(), Window: Window{From: 5, To: 10}}, {Links: NodeLinks(2), Window: Window{From: 7}}},
		Crashes: []Crash{{Node: 0, At: 3}},
		Stalls:  []Stall{{Node: 1, At: 1, For: 2}},
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

func nan() float64 {
	f := 0.0
	return f / f
}

// TestSelectorString covers the human-readable forms the error paths use.
func TestSelectorString(t *testing.T) {
	cases := map[string]Selector{
		"all-links": AllLinks(),
		"node3":     NodeLinks(3),
		"node3-tx":  {Node: 3, Dir: TxOnly},
		"node3-rx":  {Node: 3, Dir: RxOnly},
	}
	for want, sel := range cases {
		if got := sel.String(); got != want {
			t.Errorf("%+v.String() = %q, want %q", sel, got, want)
		}
	}
}
