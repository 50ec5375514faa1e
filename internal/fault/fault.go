// Package fault is a deterministic, DES-scheduled fault-injection
// subsystem for the simulated cluster. A declarative Plan names what goes
// wrong and when — packet rules (drop, corrupt, truncate or duplicate, per
// link and per window), link outages (a bounded window is a flap, an
// open-ended one a permanent cut), NIC firmware stalls, and fail-stop
// node and switch crashes — and Attach compiles it onto a fabric: state
// changes become simulator events, and rules draw from independent
// per-link streams derived from (plan seed, link ID), so the drop pattern
// seen by one flow never depends on what other links carry.
//
// The paper treats reliability as a sketch (Section 4.4 proposes a
// separate barrier acknowledgment mechanism but benchmarks without it);
// this package supplies the missing adversary: every fault class the
// hardened firmware in internal/mcp must survive, reachable from
// experiments and the CLI rather than only from unit-test loss hooks.
// An attached empty Plan costs nothing: no hook work beyond a nil rule
// scan per hop, no extra events, and bit-identical experiment output.
package fault

import (
	"fmt"
	"math/rand"

	"gmsim/internal/lanai"
	"gmsim/internal/network"
	"gmsim/internal/sim"
)

// Direction restricts a Selector to one direction of a NIC's cable.
type Direction int

const (
	// Both selects the NIC's transmit and receive channels (default).
	Both Direction = iota
	// TxOnly selects only the NIC -> switch channel.
	TxOnly
	// RxOnly selects only the switch -> NIC channel.
	RxOnly
)

// Selector names the links a rule applies to.
type Selector struct {
	// All selects every directed channel in the fabric, including
	// switch-to-switch trunks. When set, Node and Dir are ignored.
	All bool
	// Node selects the cable of one NIC.
	Node network.NodeID
	// Dir optionally narrows Node's cable to one direction.
	Dir Direction
}

// AllLinks selects every link in the fabric.
func AllLinks() Selector { return Selector{All: true} }

// NodeLinks selects both directions of one NIC's cable.
func NodeLinks(n network.NodeID) Selector { return Selector{Node: n} }

func (s Selector) String() string {
	if s.All {
		return "all-links"
	}
	switch s.Dir {
	case TxOnly:
		return fmt.Sprintf("node%d-tx", s.Node)
	case RxOnly:
		return fmt.Sprintf("node%d-rx", s.Node)
	}
	return fmt.Sprintf("node%d", s.Node)
}

// validate checks a selector's structural invariants.
func (s Selector) validate() error {
	if s.All {
		return nil
	}
	if s.Node < 0 {
		return fmt.Errorf("fault: selector names negative node %d", s.Node)
	}
	if s.Dir < Both || s.Dir > RxOnly {
		return fmt.Errorf("fault: selector direction %d out of range", s.Dir)
	}
	return nil
}

// Window is a half-open simulated-time interval [From, To). To == 0 means
// open-ended (the rule never expires).
type Window struct {
	From, To sim.Time
}

// Always is the open-ended window starting at t=0.
var Always = Window{}

func (w Window) contains(t sim.Time) bool {
	return t >= w.From && (w.To == 0 || t < w.To)
}

func (w Window) validate() error {
	if w.From < 0 || w.To < 0 {
		return fmt.Errorf("fault: window [%d,%d) has a negative bound", w.From, w.To)
	}
	if w.To != 0 && w.To <= w.From {
		return fmt.Errorf("fault: window [%d,%d) is empty or inverted", w.From, w.To)
	}
	return nil
}

// Action is what a Rule does to a packet it hits.
type Action int

const (
	// Drop loses the packet.
	Drop Action = iota
	// Corrupt damages the packet with bit errors that fail the receiver's
	// CRC check. When the payload can serialize itself
	// (network.WireEncoder), the packet carries mangled bytes so the
	// firmware exercises its real decode path.
	Corrupt
	// Truncate cuts the packet's tail (the wire size shrinks), which also
	// fails the CRC but leaves the header readable — the receiver can nack.
	Truncate
	// Duplicate delivers a second copy of the packet (e.g. a
	// retransmitting switch port).
	Duplicate
)

// Rule applies Action to packets on the selected links with probability
// Rate while the window is open.
type Rule struct {
	Links  Selector
	Window Window
	Rate   float64
	Action Action
}

// Outage takes the selected links down for the window: every packet on
// them is dropped while it is open. A bounded window is a link flap; an
// open-ended one (To == 0) severs the links for good, a persistent link
// partition.
type Outage struct {
	Links  Selector
	Window Window
}

// Crash fail-stops one node at At: its NIC halts (firmware and DMA engines
// stop), both directions of its cable go permanently down, and any host
// processes registered through Injector.OnNodeCrash are killed. The rest
// of the cluster observes only silence — detection is the protocol's job.
type Crash struct {
	Node network.NodeID
	At   sim.Time
}

// SwitchCrash fail-stops one switch at At: every directed channel touching
// it (NIC cables and inter-switch trunks, both directions) goes permanently
// down. Nodes behind the switch are partitioned from the rest.
type SwitchCrash struct {
	Switch int
	At     sim.Time
}

// Stall freezes one node's NIC firmware processor for For starting at At.
type Stall struct {
	Node network.NodeID
	At   sim.Time
	For  sim.Time
}

// Plan is a declarative fault schedule. The zero Plan injects nothing.
// Plans are pure data: the same Plan value may be attached to any number
// of independent clusters (the parallel experiment runner does exactly
// that), each attachment getting its own derived random streams.
type Plan struct {
	// Seed roots every rule's per-link stream.
	Seed int64
	// Rules act on each hop over their links in plan order (see OnHop).
	Rules         []Rule
	Outages       []Outage
	Crashes       []Crash
	SwitchCrashes []SwitchCrash
	Stalls        []Stall
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Rules) == 0 && len(p.Outages) == 0 &&
		len(p.Crashes) == 0 && len(p.SwitchCrashes) == 0 && len(p.Stalls) == 0)
}

// Clone returns a deep copy of the plan, so callers can extend a base
// scenario per experiment point without aliasing rule slices.
func (p *Plan) Clone() *Plan {
	if p == nil {
		return &Plan{}
	}
	return &Plan{
		Seed:          p.Seed,
		Rules:         append([]Rule(nil), p.Rules...),
		Outages:       append([]Outage(nil), p.Outages...),
		Crashes:       append([]Crash(nil), p.Crashes...),
		SwitchCrashes: append([]SwitchCrash(nil), p.SwitchCrashes...),
		Stalls:        append([]Stall(nil), p.Stalls...),
	}
}

// Validate checks the plan's structural invariants without a fabric:
// probabilities in [0,1], actions known, windows ordered, selectors and
// times in range. It never panics, whatever the plan contains (fuzzed by
// FuzzPlanValidate). Topology-dependent checks — selectors naming attached
// NICs, switches that exist — happen at Attach.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, r := range p.Rules {
		if r.Rate < 0 || r.Rate > 1 || r.Rate != r.Rate { // r.Rate != r.Rate catches NaN
			return fmt.Errorf("fault: rule %d has rate %v outside [0,1]", i, r.Rate)
		}
		if r.Action < Drop || r.Action > Duplicate {
			return fmt.Errorf("fault: rule %d has unknown action %d", i, r.Action)
		}
		if err := validateSpan(r.Links, r.Window); err != nil {
			return fmt.Errorf("rule %d: %w", i, err)
		}
	}
	for i, o := range p.Outages {
		if err := validateSpan(o.Links, o.Window); err != nil {
			return fmt.Errorf("outage %d: %w", i, err)
		}
	}
	seenCrash := make(map[network.NodeID]bool, len(p.Crashes))
	for i, c := range p.Crashes {
		if c.Node < 0 {
			return fmt.Errorf("fault: crash %d names negative node %d", i, c.Node)
		}
		if c.At < 0 {
			return fmt.Errorf("fault: crash %d at negative time %d", i, c.At)
		}
		if seenCrash[c.Node] {
			return fmt.Errorf("fault: node %d crashes more than once (crash %d)", c.Node, i)
		}
		seenCrash[c.Node] = true
	}
	for i, c := range p.SwitchCrashes {
		if c.Switch < 0 {
			return fmt.Errorf("fault: switch crash %d names negative switch %d", i, c.Switch)
		}
		if c.At < 0 {
			return fmt.Errorf("fault: switch crash %d at negative time %d", i, c.At)
		}
	}
	for i, st := range p.Stalls {
		if st.Node < 0 {
			return fmt.Errorf("fault: stall %d names negative node %d", i, st.Node)
		}
		if st.At < 0 || st.For < 0 {
			return fmt.Errorf("fault: stall %d has a negative time", i)
		}
	}
	return nil
}

// validateSpan checks the links and window a rule or an outage covers.
func validateSpan(s Selector, w Window) error {
	if err := s.validate(); err != nil {
		return err
	}
	return w.validate()
}

// Counters tallies what the injector actually did.
type Counters struct {
	Lost          int64 // packets dropped by Drop rules
	LinkDowns     int64 // packets dropped on a down link (outage or crash)
	Corrupted     int64 // packets damaged (bit errors)
	Truncated     int64 // packets damaged (tail cut)
	Duplicated    int64 // extra copies made (a later Drop hit on the hop drops them too)
	Flaps         int64 // bounded outages begun
	Cuts          int64 // open-ended outages begun
	Crashes       int64 // nodes fail-stopped
	SwitchCrashes int64 // switches fail-stopped
	Stalls        int64 // firmware stalls injected
}

// entry is a Rule compiled against one concrete link.
type entry struct {
	win    Window
	rate   float64
	action Action
}

// linkRules is everything the injector consults on one link's hops: the
// link's rules in plan order and its private random stream, derived from
// (plan seed, link ID). Only hops over this link consume the stream, which
// is what keeps one flow's fault pattern independent of traffic elsewhere.
type linkRules struct {
	entries []entry
	rng     *rand.Rand
}

// Injector is a Plan attached to one fabric. It implements
// network.FaultHook; per-link random streams and link state live here, so
// concurrent clusters attached to the same Plan share nothing.
type Injector struct {
	fab *network.Fabric

	// rules is per-link, populated at Attach and read-only afterwards.
	// down[l] > 0 means link l is down (nested outages count; cuts and
	// crashes increment and never decrement).
	rules map[network.LinkID]*linkRules
	down  []int32

	// crashHook, when set (cluster.OnNodeCrash), runs at the instant of
	// each node crash, so the cluster can kill the node's host processes.
	crashHook func(network.NodeID)

	cnt Counters
}

// Attach compiles the plan onto a fabric: outages, crashes and stalls
// become scheduled simulator events; rules are indexed per link, in plan
// order; and the injector installs itself as the fabric's fault hook. nics
// maps node IDs to their cards, for the firmware fault classes; it may be
// nil when the plan contains no stalls or crashes. Attach must run after
// all NICs are cabled and before the simulation starts.
func Attach(p *Plan, fab *network.Fabric, nics map[network.NodeID]*lanai.NIC) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{
		fab:   fab,
		rules: make(map[network.LinkID]*linkRules),
		down:  make([]int32, fab.NumLinks()),
	}
	if p == nil {
		p = &Plan{}
	}

	s := fab.Sim()

	for _, r := range p.Rules {
		if r.Rate <= 0 {
			continue
		}
		links, err := inj.resolve(r.Links)
		if err != nil {
			return nil, err
		}
		for _, l := range links {
			lr := inj.rules[l]
			if lr == nil {
				lr = &linkRules{rng: network.LinkStream(p.Seed, l)}
				inj.rules[l] = lr
			}
			lr.entries = append(lr.entries, entry{r.Window, r.Rate, r.Action})
		}
	}

	for _, o := range p.Outages {
		links, err := inj.resolve(o.Links)
		if err != nil {
			return nil, err
		}
		if o.Window.To == 0 {
			s.At(o.Window.From, func() {
				inj.takeDown(links)
				inj.cnt.Cuts++
				fab.NoteFault("link-cut", nil, o.Links.String())
			})
			continue
		}
		s.At(o.Window.From, func() {
			inj.takeDown(links)
			inj.cnt.Flaps++
			fab.NoteFault("link-down", nil, o.Links.String())
		})
		s.At(o.Window.To, func() {
			for _, l := range links {
				if inj.down[l] > 0 {
					inj.down[l]--
				}
			}
			fab.NoteFault("link-up", nil, o.Links.String())
		})
	}
	for _, cr := range p.Crashes {
		nic := nics[cr.Node]
		if nic == nil {
			return nil, fmt.Errorf("fault: crash names node %d with no NIC", cr.Node)
		}
		links, err := inj.resolve(NodeLinks(cr.Node))
		if err != nil {
			return nil, err
		}
		// The whole crash — NIC halt, link downs, host-process kill — is
		// one event.
		nic.Sim().At(cr.At, func() {
			nic.Kill()
			inj.takeDown(links)
			if inj.crashHook != nil {
				inj.crashHook(cr.Node)
			}
			inj.cnt.Crashes++
			fab.NoteFault("node-crash", nil, fmt.Sprintf("node%d", cr.Node))
		})
	}
	for _, sc := range p.SwitchCrashes {
		if sc.Switch >= fab.NumSwitches() {
			return nil, fmt.Errorf("fault: switch crash names switch %d; fabric has %d",
				sc.Switch, fab.NumSwitches())
		}
		links := fab.SwitchLinks(sc.Switch)
		s.At(sc.At, func() {
			inj.takeDown(links)
			inj.cnt.SwitchCrashes++
			fab.NoteFault("switch-crash", nil, fmt.Sprintf("switch%d", sc.Switch))
		})
	}
	for _, st := range p.Stalls {
		nic := nics[st.Node]
		if nic == nil {
			return nil, fmt.Errorf("fault: stall names node %d with no NIC", st.Node)
		}
		nic.Sim().At(st.At, func() {
			nic.Stall(st.For)
			inj.cnt.Stalls++
			fab.NoteFault("nic-stall", nil,
				fmt.Sprintf("node%d for %v", st.Node, st.For))
		})
	}

	fab.SetFaultHook(inj)
	return inj, nil
}

// takeDown adds one down-count to every link in links.
func (inj *Injector) takeDown(links []network.LinkID) {
	for _, l := range links {
		inj.down[l]++
	}
}

// OnNodeCrash registers a hook invoked at the instant of each node crash —
// after the NIC halts and the links go down. The cluster layer uses it to
// kill the node's host processes.
func (inj *Injector) OnNodeCrash(fn func(network.NodeID)) { inj.crashHook = fn }

// resolve maps a selector to concrete link IDs.
func (inj *Injector) resolve(s Selector) ([]network.LinkID, error) {
	if s.All {
		out := make([]network.LinkID, inj.fab.NumLinks())
		for i := range out {
			out[i] = network.LinkID(i)
		}
		return out, nil
	}
	nl, ok := inj.fab.NICLinkIDs(s.Node)
	if !ok {
		return nil, fmt.Errorf("fault: selector names node %d with no NIC", s.Node)
	}
	switch s.Dir {
	case TxOnly:
		return []network.LinkID{nl.Tx}, nil
	case RxOnly:
		return []network.LinkID{nl.Rx}, nil
	}
	return []network.LinkID{nl.Tx, nl.Rx}, nil
}

// Counters returns a snapshot of what the injector has done so far.
func (inj *Injector) Counters() Counters { return inj.cnt }

// OnHop implements network.FaultHook: rule on one packet completing one
// channel hop. The link's rules are walked once, in plan order; each draws
// from the link's stream only while its window is open, so the decision
// sequence is a pure function of (seed, link, hop index within windows) —
// independent of other links. A Drop hit ends the walk; the other actions
// apply and the walk goes on.
func (inj *Injector) OnHop(link network.LinkID, p *network.Packet) network.Verdict {
	if inj.down[link] > 0 {
		inj.cnt.LinkDowns++
		return network.Verdict{Drop: true, Reason: "link-down"}
	}
	lr := inj.rules[link]
	if lr == nil {
		return network.Verdict{}
	}
	var v network.Verdict
	now := inj.fab.Sim().Now()
	for _, e := range lr.entries {
		if !e.win.contains(now) || lr.rng.Float64() >= e.rate {
			continue
		}
		switch e.action {
		case Drop:
			inj.cnt.Lost++
			return network.Verdict{Drop: true, Reason: "fault-loss"}
		case Corrupt:
			inj.corrupt(lr.rng, p)
		case Truncate:
			inj.truncate(lr.rng, p)
		case Duplicate:
			inj.cnt.Duplicated++
			inj.fab.NoteFault("duplicate", p, "")
			v.Duplicate = true
		}
	}
	return v
}

// corrupt injects bit errors. When the payload can serialize itself the
// packet is replaced by a mangled byte image and the Corrupt flag is left
// clear: the receiving firmware runs its real decode + CRC path against
// the damage and discovers the failure itself. Payloads that cannot
// serialize get the Corrupt flag, which the receiver's CRC check reads.
func (inj *Injector) corrupt(rng *rand.Rand, p *network.Packet) {
	if p.Corrupt {
		return // already damaged on an earlier hop
	}
	inj.cnt.Corrupted++
	var img []byte
	switch pl := p.Payload.(type) {
	case []byte:
		// Already a byte image (possibly mangled on an earlier hop):
		// damage it further in place.
		img = pl
	case network.WireEncoder:
		img = pl.EncodeWire()
	}
	if len(img) > 0 {
		// Flip 1-3 bits at seeded positions. CRC32 detects all few-bit
		// errors at these frame sizes, so the receiver's decode is
		// guaranteed to reject the image.
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			pos := rng.Intn(len(img) * 8)
			img[pos/8] ^= 1 << (pos % 8)
		}
		p.Payload = img
		inj.fab.NoteFault("corrupt", p, "")
		return
	}
	p.Corrupt = true
	inj.fab.NoteFault("corrupt", p, "")
}

// truncate cuts the packet's tail: the wire size shrinks and the CRC
// fails, but the in-memory header stays readable (models a header-CRC-
// protected frame whose payload CRC fails).
func (inj *Injector) truncate(rng *rand.Rand, p *network.Packet) {
	if p.Corrupt {
		return
	}
	cut := 1 + rng.Intn(p.Size)
	if cut >= p.Size {
		cut = p.Size - 1
	}
	if cut > 0 {
		p.Size -= cut
	}
	p.Corrupt = true
	inj.cnt.Truncated++
	inj.fab.NoteFault("truncate", p, fmt.Sprintf("-%dB", cut))
}
