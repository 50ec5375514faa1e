package network

import (
	"fmt"

	"gmsim/internal/sim"
)

// SwitchParams describes a crossbar switch.
type SwitchParams struct {
	// Ports is the number of ports (the paper uses 16- and 8-port
	// switches).
	Ports int
	// RouteDelay is the cut-through forwarding delay: from head arrival at
	// an input to head emission at the (free) output. Myrinet-era switches
	// forwarded in a few hundred nanoseconds.
	RouteDelay sim.Time
}

// DefaultSwitchParams returns parameters for a paper-era Myrinet switch
// with the given port count.
func DefaultSwitchParams(ports int) SwitchParams {
	return SwitchParams{Ports: ports, RouteDelay: 300 * sim.Nanosecond}
}

// Switch is a source-routed crossbar. Each port may be cabled to a NIC or
// to another switch. Forwarding is cut-through: the head moves on after
// RouteDelay; output contention delays the head until the output channel
// frees (the packet-granularity wormhole approximation).
type Switch struct {
	fab    *fabric
	id     int
	params SwitchParams
	out    []*channel // per-port outgoing channel, nil if uncabled
	// links lists every directed channel touching the switch (transmitted
	// by it or sinking into it), for switch-death faults; two per port at
	// most, which is its capacity.
	links []LinkID

	// fwdFn is the cut-through completion callback as a method value built
	// once; the event's argument is the packet, whose fwdPort holds the
	// output port already consumed from its route, so forwarding a head
	// allocates nothing.
	fwdFn func(any)
}

// headArrived implements headSink: consume one route byte and forward, or
// drop a head whose route does not go on from here.
func (sw *Switch) headArrived(p *Packet, wire sim.Time) {
	if sw.headDue(p, sw.fab.sim.Now(), wire) {
		return
	}
	if len(p.Route) == 0 {
		sw.fab.drop(p, "route-exhausted-at-switch")
		return
	}
	port := int(p.Route[0])
	p.Route = p.Route[1:]
	sw.fab.drop(p, fmt.Sprintf("bad-route-port-%d", port))
}

// headDue implements headSink: a head that will find a cabled output port
// has its route byte consumed now and its emission there scheduled for
// RouteDelay after it arrives; one that would be dropped is left untouched
// for headArrived.
func (sw *Switch) headDue(p *Packet, headArrive, _ sim.Time) bool {
	if len(p.Route) == 0 || !sw.portCabled(int(p.Route[0])) {
		return false
	}
	p.fwdPort = p.Route[0]
	p.Route = p.Route[1:]
	sw.fab.sim.AtCall(headArrive+sw.params.RouteDelay, sw.fwdFn, p)
	return true
}

// forwardEvent fires RouteDelay after a head arrived: emit the head on the
// output channel its route chose.
func (sw *Switch) forwardEvent(a any) {
	p := a.(*Packet)
	port := int(p.fwdPort)
	if sw.fab.observer != nil {
		sw.fab.observer.PacketForwarded(p, sw.id, port)
	}
	sw.out[port].transmit(p)
}

// portCabled reports whether the given port has a cable.
func (sw *Switch) portCabled(port int) bool {
	return port >= 0 && port < sw.params.Ports && sw.out[port] != nil
}
