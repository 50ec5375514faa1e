package network

import (
	"fmt"
	"math/rand"

	"gmsim/internal/sim"
)

// Fabric is a complete Myrinet network: switches, cables, and NIC
// interfaces. It forwards along the source route each packet carries and
// computes none (internal/topo does).
//
// A fabric is built to a Shape declared up front. Its switches, their port
// tables and link lists, its directed channels and its NIC interfaces each
// live in one block of exactly the declared size, allocated by New and never
// resized; adding or cabling beyond the shape panics.
type Fabric struct {
	sim      *sim.Simulator
	observer Observer
	hook     FaultHook

	// switches and channels hold what has been added so far (len) within
	// the shape's block (cap); a channel's LinkID is its index. ifaces is
	// indexed by NodeID; an entry with a nil fab is not attached yet.
	switches []Switch
	channels []channel
	ifaces   []Iface
	// freePorts and freeLinks are the unclaimed tails of the blocks that
	// back each switch's output-port table and link list.
	freePorts  []*channel
	freeLinks  []LinkID
	trunksLeft int

	// pool is a bounded free list of packets the fabric's NICs have fully
	// consumed, shared by all of them for their next transmissions. Nothing
	// else may hold one: an observer or a fault hook does not retain a packet
	// past the call that shows it, and a duplicated packet is a copy of its
	// own (Packet.Clone).
	pool []*Packet

	delivered int64
	dropped   int64
}

// fabric is an alias kept so internal files read naturally.
type fabric = Fabric

// Shape is what a fabric holds once it is cabled: the counts New sizes its
// blocks from. internal/topo derives it from a wiring plan
// (Topology.Shape).
type Shape struct {
	// Switches is the number of AddSwitch calls, and Ports the ports of
	// those switches summed.
	Switches, Ports int
	// NICs is the number of NICs; their NodeIDs are 0 .. NICs-1.
	NICs int
	// Trunks is the number of switch-to-switch cables (ConnectSwitches).
	Trunks int
}

// packetPoolCap bounds how many consumed packets the fabric hoards per NIC.
const packetPoolCap = 32

// New creates an empty fabric of the given shape on the given simulator.
func New(s *sim.Simulator, shape Shape) *Fabric {
	if shape.Switches < 0 || shape.Ports < 0 || shape.NICs < 0 || shape.Trunks < 0 {
		panic(fmt.Sprintf("network: negative count in shape %+v", shape))
	}
	return &Fabric{
		sim:        s,
		switches:   make([]Switch, 0, shape.Switches),
		channels:   make([]channel, 0, 2*(shape.NICs+shape.Trunks)),
		ifaces:     make([]Iface, shape.NICs),
		freePorts:  make([]*channel, shape.Ports),
		freeLinks:  make([]LinkID, 2*shape.Ports),
		trunksLeft: shape.Trunks,
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

// NoteFault forwards a fault-layer event to the observer, if one is
// installed. The fault injector calls this so link flaps, stalls and
// corruptions appear in packet traces.
func (f *Fabric) NoteFault(kind string, p *Packet, detail string) {
	if f.observer != nil {
		f.observer.FaultInjected(kind, p, detail)
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

// drop discards a packet: the observer sees it, the source NIC's receiver
// takes back what it carried, and the packet goes back to the pool.
func (f *Fabric) drop(p *Packet, reason string) {
	f.dropped++
	if f.observer != nil {
		f.observer.PacketDropped(p, reason)
	}
	if p.Src >= 0 && int(p.Src) < len(f.ifaces) && f.ifaces[p.Src].recv != nil {
		f.ifaces[p.Src].recv.HandleDropped(p)
	}
	f.recycle(p)
}

// AddSwitch creates a switch and returns it. A switch beyond the shape's
// count or ports panics.
func (f *Fabric) AddSwitch(params SwitchParams) *Switch {
	ports, links := params.Ports, 2*params.Ports
	if ports <= 0 {
		panic("network: switch needs at least one port")
	}
	id := len(f.switches)
	if id == cap(f.switches) || ports > len(f.freePorts) {
		panic(fmt.Sprintf("network: switch %d (%d ports) is beyond the fabric's shape", id, ports))
	}
	f.switches = f.switches[:id+1]
	sw := &f.switches[id]
	*sw = Switch{
		fab: f, id: id, params: params,
		out:   f.freePorts[:ports:ports],
		links: f.freeLinks[:0:links],
	}
	f.freePorts = f.freePorts[ports:]
	f.freeLinks = f.freeLinks[links:]
	sw.fwdFn = sw.forwardEvent
	return sw
}

// Receiver is a NIC's firmware (*mcp.MCP) as the fabric sees it, held as it
// is, so attaching a card builds no callback: it takes the packets that fully
// arrive at the NIC, and takes back the payload of a packet the NIC sent that
// the fabric dropped, before the fabric recycles the packet.
type Receiver interface {
	HandleDelivered(p *Packet)
	HandleDropped(p *Packet)
}

// AttachNIC cables a NIC interface to a switch port with a duplex link.
// recv (nil: none) takes each packet that fully arrives at the NIC.
// Attaching a NodeID outside the shape's NICs, attaching one twice, or
// reusing a cabled switch port panics.
func (f *Fabric) AttachNIC(node NodeID, sw *Switch, port int, lp LinkParams, recv Receiver) *Iface {
	if node < 0 || int(node) >= len(f.ifaces) {
		panic(fmt.Sprintf("network: NIC %d is beyond the fabric's %d", node, len(f.ifaces)))
	}
	iface := &f.ifaces[node]
	if iface.fab != nil {
		panic(fmt.Sprintf("network: NIC %d attached twice", node))
	}
	if port < 0 || port >= sw.params.Ports {
		panic(fmt.Sprintf("network: switch %d has no port %d", sw.id, port))
	}
	if sw.out[port] != nil {
		panic(fmt.Sprintf("network: switch %d port %d already cabled", sw.id, port))
	}
	*iface = Iface{fab: f, recv: recv}
	iface.deliverFn = iface.deliverEvent
	// NIC -> switch direction.
	iface.tx = f.newChannel(lp, sw)
	// switch -> NIC direction.
	sw.out[port] = f.newChannel(lp, iface)
	iface.rx = sw.out[port].id
	sw.links = append(sw.links, iface.tx.id, iface.rx)
	return iface
}

// ConnectSwitches cables two switch ports together with a duplex link. A
// trunk beyond the shape's count, or a cabled port, panics.
func (f *Fabric) ConnectSwitches(a *Switch, aPort int, b *Switch, bPort int, lp LinkParams) {
	if a.out[aPort] != nil || b.out[bPort] != nil {
		panic("network: switch port already cabled")
	}
	if f.trunksLeft == 0 {
		panic("network: trunk is beyond the fabric's shape")
	}
	f.trunksLeft--
	a.out[aPort] = f.newChannel(lp, b)
	b.out[bPort] = f.newChannel(lp, a)
	ab, ba := a.out[aPort].id, b.out[bPort].id
	a.links = append(a.links, ab)
	b.links = append(b.links, ab)
	a.links = append(a.links, ba)
	b.links = append(b.links, ba)
}

// newChannel takes the next channel of the block; its LinkID is its index.
// AttachNIC and ConnectSwitches check the shape first, so the block has
// room.
func (f *Fabric) newChannel(lp LinkParams, sink headSink) *channel {
	id := len(f.channels)
	f.channels = f.channels[:id+1]
	c := &f.channels[id]
	*c = channel{fab: f, params: lp, sink: sink, id: LinkID(id)}
	return c
}

// SwitchLinks returns the IDs of every directed channel touching switch sw
// (cables to its NICs and trunks to other switches, both directions).
// The slice is owned by the fabric; callers must not mutate it.
func (f *Fabric) SwitchLinks(sw int) []LinkID {
	if sw < 0 || sw >= len(f.switches) {
		return nil
	}
	return f.switches[sw].links
}

// NumSwitches returns the number of switches in the fabric.
func (f *Fabric) NumSwitches() int { return len(f.switches) }

// Iface returns the interface of an attached NIC, or nil.
func (f *Fabric) Iface(node NodeID) *Iface {
	if node < 0 || int(node) >= len(f.ifaces) || f.ifaces[node].fab == nil {
		return nil
	}
	return &f.ifaces[node]
}

// NumLinks returns the number of directed channels created so far.
func (f *Fabric) NumLinks() int { return len(f.channels) }

// NICLinkIDs returns the IDs of the two directed channels of a NIC's
// cable, and whether the NIC is attached.
func (f *Fabric) NICLinkIDs(node NodeID) (NICLinks, bool) {
	i := f.Iface(node)
	if i == nil {
		return NICLinks{}, false
	}
	return NICLinks{Tx: i.tx.id, Rx: i.rx}, true
}

// Iface is a NIC's attachment point to the fabric: one duplex cable with
// separate transmit and receive channels, matching the paper's assumption
// that "NICs have separate receive and transmit channels to the network".
type Iface struct {
	fab  *Fabric
	tx   *channel
	rx   LinkID
	recv Receiver

	// deliverFn is the tail-arrival callback as a method value built once;
	// the event's argument is the packet, so completing a receive allocates
	// nothing.
	deliverFn func(any)
}

// NewPacket returns a zeroed packet for transmission, reusing one the
// fabric's NICs recycled when possible.
func (i *Iface) NewPacket() *Packet {
	f := i.fab
	if n := len(f.pool); n > 0 {
		p := f.pool[n-1]
		f.pool = f.pool[:n-1]
		*p = Packet{}
		return p
	}
	return &Packet{}
}

// Recycle hands a delivered packet back to the fabric's pool for any NIC's
// reuse. The caller (NIC firmware) must be completely done with it: no
// references may survive the call.
func (i *Iface) Recycle(p *Packet) { i.fab.recycle(p) }

func (f *Fabric) recycle(p *Packet) {
	if len(f.pool) < packetPoolCap*len(f.ifaces) {
		f.pool = append(f.pool, p)
	}
}

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
		i.recv.HandleDelivered(p)
	}
}
