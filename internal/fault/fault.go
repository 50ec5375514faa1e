// Package fault is a deterministic, DES-scheduled fault-injection
// subsystem for the simulated cluster. A declarative Plan names what goes
// wrong and when — timed link flaps, per-link and per-window packet loss,
// corruption and truncation on the wire, duplicate delivery, NIC firmware
// stalls and slowdowns, and fail-stop faults (node crashes, switch death,
// permanent link cuts) — and Attach compiles it onto a fabric: state
// changes become simulator events, and stochastic rules draw from
// independent per-link streams derived from (plan seed, link ID), so the
// drop pattern seen by one flow never depends on what other links carry.
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

// LossRule drops packets on the selected links with the given probability
// while the window is open.
type LossRule struct {
	Links  Selector
	Window Window
	Rate   float64
}

// CorruptRule damages packets on the selected links with the given
// probability: bit errors that fail the receiver's CRC check. When the
// payload can serialize itself (network.WireEncoder), the packet carries
// mangled bytes so the firmware exercises its real decode path. Truncate
// instead cuts the packet's tail (the wire size shrinks), which also fails
// the CRC but leaves the header readable — the receiver can nack.
type CorruptRule struct {
	Links    Selector
	Window   Window
	Rate     float64
	Truncate bool
}

// DupRule delivers a second copy of packets on the selected links with the
// given probability (e.g. a retransmitting switch port).
type DupRule struct {
	Links  Selector
	Window Window
	Rate   float64
}

// Flap takes the selected links down at DownAt and back up at UpAt.
// While down, every packet on those links is dropped. UpAt <= DownAt means
// the links never come back (a permanent outage; Cut reads better for that).
type Flap struct {
	Links        Selector
	DownAt, UpAt sim.Time
}

// Cut severs the selected links permanently at At: a persistent link
// partition. Unlike a Flap with no UpAt, a Cut is named for what it
// models, and plans read unambiguously.
type Cut struct {
	Links Selector
	At    sim.Time
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

// Slowdown multiplies one node's NIC firmware task durations by Factor
// while the window is open (a throttled or degraded card).
type Slowdown struct {
	Node   network.NodeID
	Window Window
	Factor float64
}

// Plan is a declarative fault schedule. The zero Plan injects nothing.
// Plans are pure data: the same Plan value may be attached to any number
// of independent clusters (the parallel experiment runner does exactly
// that), each attachment getting its own derived random streams.
type Plan struct {
	// Seed roots every stochastic rule's per-link stream.
	Seed          int64
	Loss          []LossRule
	Corrupt       []CorruptRule
	Duplicate     []DupRule
	Flaps         []Flap
	Cuts          []Cut
	Crashes       []Crash
	SwitchCrashes []SwitchCrash
	Stalls        []Stall
	Slowdowns     []Slowdown
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Loss) == 0 && len(p.Corrupt) == 0 &&
		len(p.Duplicate) == 0 && len(p.Flaps) == 0 &&
		len(p.Cuts) == 0 && len(p.Crashes) == 0 && len(p.SwitchCrashes) == 0 &&
		len(p.Stalls) == 0 && len(p.Slowdowns) == 0)
}

// Clone returns a deep copy of the plan, so callers can extend a base
// scenario per experiment point without aliasing rule slices.
func (p *Plan) Clone() *Plan {
	if p == nil {
		return &Plan{}
	}
	q := &Plan{Seed: p.Seed}
	q.Loss = append([]LossRule(nil), p.Loss...)
	q.Corrupt = append([]CorruptRule(nil), p.Corrupt...)
	q.Duplicate = append([]DupRule(nil), p.Duplicate...)
	q.Flaps = append([]Flap(nil), p.Flaps...)
	q.Cuts = append([]Cut(nil), p.Cuts...)
	q.Crashes = append([]Crash(nil), p.Crashes...)
	q.SwitchCrashes = append([]SwitchCrash(nil), p.SwitchCrashes...)
	q.Stalls = append([]Stall(nil), p.Stalls...)
	q.Slowdowns = append([]Slowdown(nil), p.Slowdowns...)
	return q
}

// Validate checks the plan's structural invariants without a fabric:
// probabilities in [0,1], windows ordered, selectors and times in range.
// It never panics, whatever the plan contains (fuzzed by FuzzPlanValidate).
// Topology-dependent checks — selectors naming attached NICs, switches
// that exist — happen at Attach.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	rate := func(kind string, i int, r float64) error {
		if r < 0 || r > 1 || r != r { // r != r catches NaN
			return fmt.Errorf("fault: %s rule %d has rate %v outside [0,1]", kind, i, r)
		}
		return nil
	}
	for i, r := range p.Loss {
		if err := rate("loss", i, r.Rate); err != nil {
			return err
		}
		if err := r.Links.validate(); err != nil {
			return fmt.Errorf("loss rule %d: %w", i, err)
		}
		if err := r.Window.validate(); err != nil {
			return fmt.Errorf("loss rule %d: %w", i, err)
		}
	}
	for i, r := range p.Corrupt {
		if err := rate("corrupt", i, r.Rate); err != nil {
			return err
		}
		if err := r.Links.validate(); err != nil {
			return fmt.Errorf("corrupt rule %d: %w", i, err)
		}
		if err := r.Window.validate(); err != nil {
			return fmt.Errorf("corrupt rule %d: %w", i, err)
		}
	}
	for i, r := range p.Duplicate {
		if err := rate("duplicate", i, r.Rate); err != nil {
			return err
		}
		if err := r.Links.validate(); err != nil {
			return fmt.Errorf("duplicate rule %d: %w", i, err)
		}
		if err := r.Window.validate(); err != nil {
			return fmt.Errorf("duplicate rule %d: %w", i, err)
		}
	}
	for i, fl := range p.Flaps {
		if err := fl.Links.validate(); err != nil {
			return fmt.Errorf("flap %d: %w", i, err)
		}
		if fl.DownAt < 0 || fl.UpAt < 0 {
			return fmt.Errorf("fault: flap %d has a negative time", i)
		}
	}
	for i, c := range p.Cuts {
		if err := c.Links.validate(); err != nil {
			return fmt.Errorf("cut %d: %w", i, err)
		}
		if c.At < 0 {
			return fmt.Errorf("fault: cut %d at negative time %d", i, c.At)
		}
	}
	for i, c := range p.Crashes {
		if c.Node < 0 {
			return fmt.Errorf("fault: crash %d names negative node %d", i, c.Node)
		}
		if c.At < 0 {
			return fmt.Errorf("fault: crash %d at negative time %d", i, c.At)
		}
	}
	for i, c := range p.SwitchCrashes {
		if c.Switch < 0 {
			return fmt.Errorf("fault: switch crash %d names negative switch %d", i, c.Switch)
		}
		if c.At < 0 {
			return fmt.Errorf("fault: switch crash %d at negative time %d", i, c.At)
		}
	}
	seenCrash := make(map[network.NodeID]bool, len(p.Crashes))
	for i, c := range p.Crashes {
		if seenCrash[c.Node] {
			return fmt.Errorf("fault: node %d crashes more than once (crash %d)", c.Node, i)
		}
		seenCrash[c.Node] = true
	}
	for i, st := range p.Stalls {
		if st.Node < 0 {
			return fmt.Errorf("fault: stall %d names negative node %d", i, st.Node)
		}
		if st.At < 0 || st.For < 0 {
			return fmt.Errorf("fault: stall %d has a negative time", i)
		}
	}
	for i, sl := range p.Slowdowns {
		if sl.Node < 0 {
			return fmt.Errorf("fault: slowdown %d names negative node %d", i, sl.Node)
		}
		if err := sl.Window.validate(); err != nil {
			return fmt.Errorf("slowdown %d: %w", i, err)
		}
		if sl.Factor < 0 || sl.Factor != sl.Factor {
			return fmt.Errorf("fault: slowdown %d has factor %v", i, sl.Factor)
		}
	}
	return nil
}

// Counters tallies what the injector actually did.
type Counters struct {
	Lost          int64 // packets dropped by loss rules
	LinkDowns     int64 // packets dropped on a down link (flap, cut or crash)
	Corrupted     int64 // packets damaged (bit errors)
	Truncated     int64 // packets damaged (tail cut)
	Duplicated    int64 // extra copies delivered
	Flaps         int64 // links taken down by flap rules
	Cuts          int64 // permanent link cuts applied
	Crashes       int64 // nodes fail-stopped
	SwitchCrashes int64 // switches fail-stopped
	Stalls        int64 // firmware stalls injected
}

// lossEntry etc. are rules compiled against one concrete link.
type lossEntry struct {
	win  Window
	rate float64
}
type corruptEntry struct {
	win      Window
	rate     float64
	truncate bool
}
type dupEntry struct {
	win  Window
	rate float64
}

// linkRules is everything the injector must consult on one link's hops.
type linkRules struct {
	loss    []lossEntry
	corrupt []corruptEntry
	dup     []dupEntry
}

// Injector is a Plan attached to one fabric. It implements
// network.FaultHook; per-link random streams and link state live here, so
// concurrent clusters attached to the same Plan share nothing.
type Injector struct {
	fab  *network.Fabric
	seed int64

	// rules and streams are per-link, populated at Attach and read-only
	// afterwards. down[l] > 0 means link l is down (nested flaps count;
	// cuts and crashes increment and never decrement).
	rules   map[network.LinkID]*linkRules
	streams map[network.LinkID]*rand.Rand
	down    []int32

	// crashHook, when set (cluster.OnNodeCrash), runs at the instant of
	// each node crash, so the cluster can kill the node's host processes.
	crashHook func(network.NodeID)

	cnt Counters
}

// Attach compiles the plan onto a fabric: flap, cut, crash, stall
// and slowdown rules become scheduled simulator events; stochastic rules
// are indexed per link; and the injector installs itself as the fabric's
// fault hook. nics maps node IDs to their cards, for the firmware fault
// classes; it may be nil when the plan contains no stalls, slowdowns or
// crashes. Attach must run after all NICs are cabled and before the
// simulation starts.
func Attach(p *Plan, fab *network.Fabric, nics map[network.NodeID]*lanai.NIC) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{
		fab:     fab,
		rules:   make(map[network.LinkID]*linkRules),
		streams: make(map[network.LinkID]*rand.Rand),
		down:    make([]int32, fab.NumLinks()),
	}
	if p == nil {
		p = &Plan{}
	}
	inj.seed = p.Seed

	s := fab.Sim()

	for _, r := range p.Loss {
		if r.Rate <= 0 {
			continue
		}
		links, err := inj.resolve(r.Links)
		if err != nil {
			return nil, err
		}
		for _, l := range links {
			lr := inj.linkRules(l)
			lr.loss = append(lr.loss, lossEntry{r.Window, r.Rate})
		}
	}
	for _, r := range p.Corrupt {
		if r.Rate <= 0 {
			continue
		}
		links, err := inj.resolve(r.Links)
		if err != nil {
			return nil, err
		}
		for _, l := range links {
			lr := inj.linkRules(l)
			lr.corrupt = append(lr.corrupt, corruptEntry{r.Window, r.Rate, r.Truncate})
		}
	}
	for _, r := range p.Duplicate {
		if r.Rate <= 0 {
			continue
		}
		links, err := inj.resolve(r.Links)
		if err != nil {
			return nil, err
		}
		for _, l := range links {
			lr := inj.linkRules(l)
			lr.dup = append(lr.dup, dupEntry{r.Window, r.Rate})
		}
	}
	// Streams are created up front for every rule-bearing link; after this
	// point the map is read-only.
	for l := range inj.rules {
		inj.streams[l] = network.LinkStream(inj.seed, l)
	}

	for _, fl := range p.Flaps {
		fl := fl
		links, err := inj.resolve(fl.Links)
		if err != nil {
			return nil, err
		}
		s.At(fl.DownAt, func() {
			inj.takeDown(links)
			inj.cnt.Flaps++
			fab.NoteFault("link-down", nil, fl.Links.String())
		})
		if fl.UpAt > fl.DownAt {
			s.At(fl.UpAt, func() {
				for _, l := range links {
					if inj.down[l] > 0 {
						inj.down[l]--
					}
				}
				fab.NoteFault("link-up", nil, fl.Links.String())
			})
		}
	}
	for _, ct := range p.Cuts {
		ct := ct
		links, err := inj.resolve(ct.Links)
		if err != nil {
			return nil, err
		}
		s.At(ct.At, func() {
			inj.takeDown(links)
			inj.cnt.Cuts++
			fab.NoteFault("link-cut", nil, ct.Links.String())
		})
	}
	for _, cr := range p.Crashes {
		cr := cr
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
		sc := sc
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
		st := st
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
	for _, sl := range p.Slowdowns {
		sl := sl
		nic := nics[sl.Node]
		if nic == nil {
			return nil, fmt.Errorf("fault: slowdown names node %d with no NIC", sl.Node)
		}
		nic.Sim().At(sl.Window.From, func() {
			nic.SetSlowdown(sl.Factor)
			fab.NoteFault("nic-slowdown", nil,
				fmt.Sprintf("node%d x%.2f", sl.Node, sl.Factor))
		})
		if sl.Window.To > sl.Window.From {
			nic.Sim().At(sl.Window.To, func() {
				nic.SetSlowdown(1)
				fab.NoteFault("nic-slowdown", nil, fmt.Sprintf("node%d x1", sl.Node))
			})
		}
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

func (inj *Injector) linkRules(l network.LinkID) *linkRules {
	lr, ok := inj.rules[l]
	if !ok {
		lr = &linkRules{}
		inj.rules[l] = lr
	}
	return lr
}

// stream returns the link's private random stream, derived from
// (plan seed, link ID). Only hops over this link consume it, which is what
// keeps one flow's fault pattern independent of traffic elsewhere.
func (inj *Injector) stream(l network.LinkID) *rand.Rand { return inj.streams[l] }

// Counters returns a snapshot of what the injector has done so far.
func (inj *Injector) Counters() Counters { return inj.cnt }

// LinkDown reports whether any flap, cut or crash currently holds the link
// down.
func (inj *Injector) LinkDown(l network.LinkID) bool {
	return int(l) < len(inj.down) && inj.down[l] > 0
}

// OnHop implements network.FaultHook: rule on one packet completing one
// channel hop. Stochastic rules consume the link's stream only while their
// window is open, so the decision sequence is a pure function of
// (seed, link, hop index within windows) — independent of other links.
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
	for _, e := range lr.loss {
		if e.win.contains(now) && inj.stream(link).Float64() < e.rate {
			inj.cnt.Lost++
			return network.Verdict{Drop: true, Reason: "fault-loss"}
		}
	}
	for _, e := range lr.corrupt {
		if !e.win.contains(now) || inj.stream(link).Float64() >= e.rate {
			continue
		}
		if e.truncate {
			inj.truncate(link, p)
		} else {
			inj.corrupt(link, p)
		}
	}
	for _, e := range lr.dup {
		if e.win.contains(now) && inj.stream(link).Float64() < e.rate {
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
func (inj *Injector) corrupt(link network.LinkID, p *network.Packet) {
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
		rng := inj.stream(link)
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
func (inj *Injector) truncate(link network.LinkID, p *network.Packet) {
	if p.Corrupt {
		return
	}
	rng := inj.stream(link)
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
