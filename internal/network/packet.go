// Package network models a Myrinet-style wormhole-routed fabric: duplex
// links with bandwidth and propagation latency, crossbar switches with
// cut-through forwarding and output-port contention, and source-routed
// packets.
//
// Timing model. A packet of S bytes injected on a link occupies that link's
// directed channel for S/bandwidth (serialization). Its head propagates to
// the far end after the channel's latency. A switch begins forwarding the
// head after a fixed routing delay without waiting for the tail
// (cut-through), so across a path of k hops the head arrives after
// k*(latency) + (k-1)*routeDelay and the tail one serialization time later.
// When an output port is busy, the head waits (a packet-granularity
// approximation of wormhole backpressure; see DESIGN.md).
//
// Events per hop. A hop is a packet crossing one directed channel. Its head
// reaching the far end is an event of its own (channel.arriveEvent) only
// when something rules on packets there: a fault hook installed when the
// hop starts, or a route byte the next switch cannot follow, so that a drop
// keeps its instant and reason. Otherwise
// channel.transmit has the sink schedule what the arrival would have
// scheduled, for the same instant: a switch consumes the route byte and
// schedules forwardEvent at headArrive+RouteDelay, a NIC schedules
// deliverEvent at headArrive+wire. A packet crossing k switches then costs
// k+1 events instead of 2k+2, and every transmit, forwarding decision and
// delivery happens at the instant it always did. Observers do not force the
// arrival event: they are called from the events that remain. Every one of
// these events carries the *Packet itself as its argument (sim.AtCall), so
// the fabric keeps no record of a packet in flight: the port a switch chose
// rides in Packet.fwdPort, and the arrival event works the wire time out
// again from Size.
//
// Same-instant order. Events of one instant run in the order they were
// scheduled. The follow-up is scheduled where the arrival it replaces was —
// in the upstream transmit — so two forwardings that race for an output port
// (same switch, same RouteDelay, hence same arrival instant) run in the
// order of their upstream transmits in both forms, and by induction so do
// all forwardings of a fabric whose switches share one RouteDelay (every
// cluster.Build fabric). A delivery is scheduled one arrival earlier than it
// used to be; relative to an event of the same instant that was scheduled
// between its upstream transmit and its head's arrival — another NIC's
// delivery of a packet with a different wire time, or a host doorbell at the
// same NIC — it now runs first. Such a tie is a coincidence of unrelated
// timings and was never broken by anything physical; no pinned output moved
// (Figure 5, scenario goldens, golden trace, benchmark outputs), and the
// differential tests (onehop_test.go; experiments'
// TestOneEventHopMatchesArrivalEventRuns, 192 whole-stack cells) run both
// forms side by side.
//
// This is deliberately per hop, not one event per path: an output channel's
// busyUntil is only known when the head gets there, so reserving the whole
// path at injection is wrong whenever a packet injected later reaches a
// shared port first, and a forwarding scheduled earlier than the arrival it
// replaces could change who wins a port at a tie.
package network

import "fmt"

// NodeID identifies a NIC on the fabric. IDs are dense, starting at 0,
// and double as GM node IDs.
type NodeID int

// Packet is one Myrinet packet. The fabric reads only Route and Size;
// Payload is opaque and is interpreted by the NIC firmware (package mcp).
type Packet struct {
	// Route is the remaining source route: one output-port byte per switch
	// hop. Switches consume bytes from the front.
	Route []byte
	// Src and Dst identify the endpoints, for tracing and delivery checks.
	// The fabric forwards using Route only, as real Myrinet does.
	Src, Dst NodeID
	// Size is the total on-the-wire size in bytes (header + payload).
	Size int
	// Payload carries the firmware-level message.
	Payload any
	// Corrupt marks a packet damaged on the wire (bit errors, truncation).
	// The receiving NIC's CRC check fails and the firmware must discard it.
	Corrupt bool

	// fwdPort is the output port a switch consumed from Route for the head
	// now crossing it, read back when the head leaves (Switch.forwardEvent).
	// It fits in the struct's padding, so a Packet stays 80 bytes.
	fwdPort byte

	// routeBuf backs Route inline for the short source routes every
	// realistic topology produces (one byte per switch tier crossed), so
	// stamping a route onto a packet does not allocate.
	routeBuf [8]byte

	// Mark is the fabric observer's: the trace recorder numbers a packet it
	// saw injected here, and finds its injection by that number when the
	// packet arrives. The fabric never reads it, a packet from NewPacket
	// starts at 0, and Clone clears it (a copy is a packet of its own). It
	// fits in the struct's padding.
	Mark uint32
}

// SetRoute copies r into the packet's route, reusing the inline buffer
// when it fits.
func (p *Packet) SetRoute(r []byte) {
	if len(r) <= len(p.routeBuf) {
		p.Route = p.routeBuf[:copy(p.routeBuf[:], r)]
	} else {
		p.Route = append([]byte(nil), r...)
	}
}

// Clone returns a copy of the packet with its own Route storage, so a
// retransmission does not observe route bytes consumed by a previous
// traversal, and its own payload when the payload is a PayloadCopier, so
// the receiver of one copy can recycle what it carried without the other
// noticing. The copy's Mark is 0: an observer has not seen it injected.
func (p *Packet) Clone() *Packet {
	q := *p
	q.Mark = 0
	q.SetRoute(p.Route)
	if pc, ok := p.Payload.(PayloadCopier); ok {
		q.Payload = pc.CopyPayload()
	}
	return &q
}

// PayloadCopier is implemented by payloads a receiver takes ownership of (the
// firmware's wire frames, which go back to a free list once handled): a
// cloned packet carries a copy of its own.
type PayloadCopier interface {
	CopyPayload() any
}

func (p *Packet) String() string {
	return fmt.Sprintf("pkt{%d->%d size=%d route=%v}", p.Src, p.Dst, p.Size, p.Route)
}

// Observer receives fabric-level events, for tracing and tests.
// All methods are called synchronously from the simulation event loop. An
// observer must not retain p past the call: a delivered or dropped packet,
// and the frame it carries, are reused for later traffic.
type Observer interface {
	// PacketInjected fires when a NIC begins transmitting a packet.
	PacketInjected(p *Packet)
	// PacketDelivered fires when a packet fully arrives at its final NIC.
	PacketDelivered(p *Packet)
	// PacketDropped fires when the fabric discards a packet and names why
	// ("loss", "bad-route", ...).
	PacketDropped(p *Packet, reason string)
	// PacketForwarded fires at every switch forwarding decision, at the
	// instant the head leaves the switch (after RouteDelay), so
	// multi-switch traces can show which crossbars (and trunk crossings) a
	// packet traversed. swID is the fabric-assigned switch index, port the
	// chosen output port.
	PacketForwarded(p *Packet, swID, port int)
	// FaultInjected fires for fault-layer events (link flaps, corruption,
	// stalls; Fabric.NoteFault) so timing diagrams can show what the fault
	// injector did. p is nil for events not tied to a packet (link state
	// changes, firmware stalls).
	FaultInjected(kind string, p *Packet, detail string)
}

// WireEncoder is implemented by payloads that can serialize themselves to
// on-the-wire bytes. The fault layer uses it to corrupt a packet's actual
// byte image, so the receiving firmware exercises its real decode + CRC
// path instead of trusting an intact in-memory structure.
type WireEncoder interface {
	EncodeWire() []byte
}

// LinkID identifies one directed channel (one direction of one cable) in
// the fabric. IDs are dense, assigned in cable-creation order, and stable
// across runs of the same topology — the fault layer derives per-link
// random streams from them.
type LinkID int32

// NICLinks names the two directed channels of a NIC's cable.
type NICLinks struct {
	// Tx is the NIC -> switch direction; Rx is switch -> NIC.
	Tx, Rx LinkID
}

// Verdict is a FaultHook's decision about one packet completing one channel
// hop. The hook may additionally mutate the packet in place (set Corrupt,
// shrink Size, replace the payload with mangled bytes) before returning.
type Verdict struct {
	// Drop discards the packet; Reason names why for observers.
	Drop   bool
	Reason string
	// Duplicate delivers a second, independent copy of the packet after
	// the original (duplicate delivery fault).
	Duplicate bool
}

// FaultHook intercepts every packet head arriving at the end of a directed
// channel, at the instant of the hop. See internal/fault. Like an Observer, a
// hook must not retain p past the call.
type FaultHook interface {
	OnHop(link LinkID, p *Packet) Verdict
}
