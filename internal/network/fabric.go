package network

import (
	"fmt"
	"math/rand"

	"gmsim/internal/sim"
)

// Fabric is a complete Myrinet network: switches, cables, and NIC
// interfaces. It forwards along the source route each packet carries and
// computes none (internal/topo does).
type Fabric struct {
	sim      *sim.Simulator
	switches []*Switch
	ifaces   map[NodeID]*Iface
	observer Observer
	hook     FaultHook

	nextLink LinkID
	nicLinks map[NodeID]NICLinks
	// swLinks[swID] lists every directed channel touching that switch
	// (transmitted by it or sinking into it), for switch-death faults.
	swLinks [][]LinkID

	delivered int64
	dropped   int64
}

// fabric is an alias kept so internal files read naturally.
type fabric = Fabric

// New creates an empty fabric on the given simulator.
func New(s *sim.Simulator) *Fabric {
	return &Fabric{
		sim:      s,
		ifaces:   make(map[NodeID]*Iface),
		nicLinks: make(map[NodeID]NICLinks),
	}
}

// Sim returns the simulator the fabric runs on.
func (f *Fabric) Sim() *sim.Simulator { return f.sim }

// Delivered returns the count of packets fully delivered to NICs.
func (f *Fabric) Delivered() int64 { return f.delivered }

// Dropped returns the count of packets discarded by the fabric.
func (f *Fabric) Dropped() int64 { return f.dropped }

// SetObserver installs a fabric event observer (tracing); nil clears it.
func (f *Fabric) SetObserver(o Observer) { f.observer = o }

// SetFaultHook installs a fault-injection hook consulted at every channel
// hop — the one thing that can rule on a packet in flight (see
// internal/fault). nil clears it. The hook rules on hops that start — whose
// packet is handed to the channel — after the call; a head already under way
// arrives unruled (fault.Attach installs at build time, before any traffic).
func (f *Fabric) SetFaultHook(h FaultHook) { f.hook = h }

// NoteFault forwards a fault-layer event to the observer, if the observer
// cares (implements FaultObserver). The fault injector calls this so link
// flaps, stalls and corruptions appear in packet traces.
func (f *Fabric) NoteFault(kind string, p *Packet, detail string) {
	if fo, ok := f.observer.(FaultObserver); ok {
		fo.FaultInjected(kind, p, detail)
	}
}

// LinkStream returns a rand stream deterministically derived from
// (seed, link), so a consumer that keeps one stream per link draws the same
// decisions on a link whatever crosses the others (the fault layer's rules).
func LinkStream(seed int64, link LinkID) *rand.Rand { return rand.New(LinkSource(seed, link)) }

// LinkSource is LinkStream's source without the rand.Rand around it, for a
// consumer that draws one kind of value and computes it on the source itself
// (the firmware's jitter).
func LinkSource(seed int64, link LinkID) rand.Source {
	return rand.NewSource(mix64(seed, int64(link)))
}

// mix64 hashes two 64-bit values into one well-distributed seed
// (splitmix64 finalizer over their combination).
func mix64(a, b int64) int64 {
	z := uint64(a) + 0x9E3779B97F4A7C15*(uint64(b)+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

func (f *Fabric) drop(p *Packet, reason string) {
	f.dropped++
	if f.observer != nil {
		f.observer.PacketDropped(p, reason)
	}
}

// AddSwitch creates a switch and returns it.
func (f *Fabric) AddSwitch(params SwitchParams) *Switch {
	sw := newSwitch(f, len(f.switches), params)
	f.switches = append(f.switches, sw)
	return sw
}

// AttachNIC cables a NIC interface to a switch port with a duplex link.
// recv is invoked when a packet fully arrives at the NIC. Attaching two
// NICs with the same NodeID, or reusing a cabled switch port, panics.
func (f *Fabric) AttachNIC(node NodeID, sw *Switch, port int, lp LinkParams, recv func(*Packet)) *Iface {
	if _, dup := f.ifaces[node]; dup {
		panic(fmt.Sprintf("network: NIC %d attached twice", node))
	}
	if port < 0 || port >= sw.params.Ports {
		panic(fmt.Sprintf("network: switch %d has no port %d", sw.id, port))
	}
	if sw.out[port] != nil {
		panic(fmt.Sprintf("network: switch %d port %d already cabled", sw.id, port))
	}
	iface := &Iface{fab: f, node: node, recv: recv}
	iface.deliverFn = iface.deliverEvent
	// NIC -> switch direction.
	iface.tx = f.newChannel(lp, sw)
	// switch -> NIC direction.
	sw.out[port] = f.newChannel(lp, iface)
	f.nicLinks[node] = NICLinks{Tx: iface.tx.id, Rx: sw.out[port].id}
	f.noteSwitchLink(sw.id, iface.tx.id)
	f.noteSwitchLink(sw.id, sw.out[port].id)
	f.ifaces[node] = iface
	return iface
}

// ConnectSwitches cables two switch ports together with a duplex link.
func (f *Fabric) ConnectSwitches(a *Switch, aPort int, b *Switch, bPort int, lp LinkParams) {
	if a.out[aPort] != nil || b.out[bPort] != nil {
		panic("network: switch port already cabled")
	}
	a.out[aPort] = f.newChannel(lp, b)
	b.out[bPort] = f.newChannel(lp, a)
	f.noteSwitchLink(a.id, a.out[aPort].id)
	f.noteSwitchLink(b.id, a.out[aPort].id)
	f.noteSwitchLink(a.id, b.out[bPort].id)
	f.noteSwitchLink(b.id, b.out[bPort].id)
}

// newChannel allocates one directed channel with the next dense LinkID.
func (f *Fabric) newChannel(lp LinkParams, sink headSink) *channel {
	c := &channel{fab: f, params: lp, sink: sink, id: f.nextLink}
	c.arriveFn = c.arriveEvent
	f.nextLink++
	return c
}

// noteSwitchLink records that link l touches switch sw.
func (f *Fabric) noteSwitchLink(sw int, l LinkID) {
	for len(f.swLinks) <= sw {
		f.swLinks = append(f.swLinks, nil)
	}
	f.swLinks[sw] = append(f.swLinks[sw], l)
}

// SwitchLinks returns the IDs of every directed channel touching switch sw
// (cables to its NICs and trunks to other switches, both directions).
// The slice is owned by the fabric; callers must not mutate it.
func (f *Fabric) SwitchLinks(sw int) []LinkID {
	if sw < 0 || sw >= len(f.swLinks) {
		return nil
	}
	return f.swLinks[sw]
}

// NumSwitches returns the number of switches in the fabric.
func (f *Fabric) NumSwitches() int { return len(f.switches) }

// Iface returns the interface of an attached NIC, or nil.
func (f *Fabric) Iface(node NodeID) *Iface { return f.ifaces[node] }

// NumLinks returns the number of directed channels created so far.
func (f *Fabric) NumLinks() int { return int(f.nextLink) }

// NICLinkIDs returns the IDs of the two directed channels of a NIC's
// cable, and whether the NIC is attached.
func (f *Fabric) NICLinkIDs(node NodeID) (NICLinks, bool) {
	l, ok := f.nicLinks[node]
	return l, ok
}

// Iface is a NIC's attachment point to the fabric: one duplex cable with
// separate transmit and receive channels, matching the paper's assumption
// that "NICs have separate receive and transmit channels to the network".
type Iface struct {
	fab  *Fabric
	node NodeID
	tx   *channel
	recv func(*Packet)

	// deliverFn is the tail-arrival callback as a method value built once;
	// the event's argument is the packet, so completing a receive allocates
	// nothing.
	deliverFn func(any)

	// pool is a bounded free list of packets this NIC has fully consumed,
	// available for its own next transmissions. Nothing else may hold one:
	// an observer or a fault hook does not retain a packet past the call that
	// shows it, and a duplicated packet is a copy of its own (Packet.Clone).
	pool []*Packet
}

// packetPoolCap bounds how many consumed packets an interface hoards.
const packetPoolCap = 32

// NewPacket returns a zeroed packet for transmission, reusing one this NIC
// previously recycled when possible.
func (i *Iface) NewPacket() *Packet {
	if n := len(i.pool); n > 0 {
		p := i.pool[n-1]
		i.pool = i.pool[:n-1]
		*p = Packet{}
		return p
	}
	return &Packet{}
}

// Recycle hands a delivered packet back for reuse. The caller (NIC
// firmware) must be completely done with it: no references may survive the
// call.
func (i *Iface) Recycle(p *Packet) {
	if len(i.pool) < packetPoolCap {
		i.pool = append(i.pool, p)
	}
}

// Node returns the NIC's fabric identity.
func (i *Iface) Node() NodeID { return i.node }

// Transmit injects a packet onto the NIC's outgoing channel at the current
// simulated time. If the channel is busy the packet queues behind earlier
// traffic. The NIC firmware (mcp.SEND) is responsible for pacing.
func (i *Iface) Transmit(p *Packet) {
	if i.fab.observer != nil {
		i.fab.observer.PacketInjected(p)
	}
	i.tx.transmit(p)
}

// headArrived implements headSink: the packet head reached the NIC; the
// packet is fully received one serialization time later.
func (i *Iface) headArrived(p *Packet, wire sim.Time) {
	i.headDue(p, i.fab.sim.Now(), wire)
}

// headDue implements headSink: a NIC takes every head, so the tail's
// arrival can be scheduled as soon as the head's is known.
func (i *Iface) headDue(p *Packet, headArrive, wire sim.Time) bool {
	i.fab.sim.AtCall(headArrive+wire, i.deliverFn, p)
	return true
}

// deliverEvent fires at tail arrival: hand the packet to the NIC.
func (i *Iface) deliverEvent(a any) {
	p := a.(*Packet)
	if len(p.Route) != 0 {
		i.fab.drop(p, "route-left-over-at-nic")
		return
	}
	i.fab.delivered++
	if i.fab.observer != nil {
		i.fab.observer.PacketDelivered(p)
	}
	if i.recv != nil {
		i.recv(p)
	}
}
