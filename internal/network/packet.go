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
package network

import (
	"fmt"

	"gmsim/internal/sim"
)

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

	// routeBuf backs Route inline for the short source routes every
	// realistic topology produces (one byte per switch tier crossed), so
	// stamping a route onto a packet does not allocate.
	routeBuf [8]byte
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
// traversal.
func (p *Packet) Clone() *Packet {
	q := *p
	q.SetRoute(p.Route)
	return &q
}

func (p *Packet) String() string {
	return fmt.Sprintf("pkt{%d->%d size=%d route=%v}", p.Src, p.Dst, p.Size, p.Route)
}

// Observer receives fabric-level events, for tracing and tests.
// All methods are called synchronously from the simulation event loop.
type Observer interface {
	// PacketInjected fires when a NIC begins transmitting a packet.
	PacketInjected(p *Packet)
	// PacketDelivered fires when a packet fully arrives at its final NIC.
	PacketDelivered(p *Packet)
	// PacketDropped fires when the fabric discards a packet and names why
	// ("loss", "bad-route", ...).
	PacketDropped(p *Packet, reason string)
}

// FaultObserver is an optional extension of Observer: implementations also
// receive fault-layer events (link flaps, corruption, stalls) so timing
// diagrams can show what the fault injector did. p may be nil for events
// not tied to a packet (link state changes, firmware stalls).
type FaultObserver interface {
	FaultInjected(kind string, p *Packet, detail string)
}

// HopObserver is an optional extension of Observer: implementations also
// see every switch forwarding decision, so multi-switch traces can show
// which crossbars (and trunk crossings) a packet traversed. swID is the
// fabric-assigned switch index, port the chosen output port. Called at the
// instant the head leaves the switch (after RouteDelay).
type HopObserver interface {
	PacketForwarded(p *Packet, swID, port int)
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
// channel, before the fabric's own loss injection. See internal/fault.
// now is the simulated time of the hop.
type FaultHook interface {
	OnHop(link LinkID, p *Packet, now sim.Time) Verdict
}
