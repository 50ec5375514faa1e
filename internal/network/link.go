package network

import "gmsim/internal/sim"

// LinkParams describes one duplex cable.
type LinkParams struct {
	// BandwidthMBps is the per-direction bandwidth in megabytes per second.
	// Myrinet LAN links of the paper's era sustain roughly 160 MB/s.
	BandwidthMBps float64
	// Latency is the propagation delay of the cable (plus SERDES), per
	// direction.
	Latency sim.Time
}

// DefaultLinkParams returns parameters for a paper-era Myrinet LAN cable.
func DefaultLinkParams() LinkParams {
	return LinkParams{BandwidthMBps: 160, Latency: 300 * sim.Nanosecond}
}

// wireTime returns how long size bytes occupy one directed channel.
func (lp LinkParams) wireTime(size int) sim.Time {
	if size <= 0 {
		return 0
	}
	ns := float64(float64(size) / lp.BandwidthMBps * 1000) // bytes / (MB/s) = µs; ×1000 → ns
	return sim.Time(ns + 0.5)
}

// headSink is anything a directed channel can deliver a packet head to:
// a switch input port (which forwards, cut-through) or a NIC interface
// (which waits for the tail and then receives).
type headSink interface {
	// headArrived is called at the instant the packet head reaches the
	// sink. wire is the serialization time of the full packet on the
	// incoming channel, so a final sink can compute tail arrival.
	headArrived(p *Packet, wire sim.Time)
	// headDue is called from transmit, at the instant the packet starts on
	// the incoming channel, when nothing can rule on the hop before its head
	// arrives at headArrive. The sink either schedules what headArrived
	// would schedule at that instant — for the same time — and reports true,
	// or touches nothing and reports false; it then gets headArrived at
	// headArrive, so a drop keeps its instant and reason.
	headDue(p *Packet, headArrive, wire sim.Time) bool
}

// channel is one direction of a link: a serializing resource with latency.
type channel struct {
	fab       *fabric
	id        LinkID
	params    LinkParams
	busyUntil sim.Time
	sink      headSink

	// arriveFn is the arrival callback as a method value, built the first
	// time a hop needs its arrival event (a fault hook, or a sink that
	// declined headDue), so a clean run never builds it; the event's argument
	// is the packet, so scheduling a hop allocates nothing (see sim.AtCall).
	arriveFn func(any)
}

// transmit accepts a packet for transmission at the current simulated time.
// If the channel is busy the packet waits (FIFO by virtue of busyUntil
// monotonicity).
//
// A hop costs one event, not two, whenever no fault hook is installed to
// rule on packets at the end of a channel: the sink schedules its own
// follow-up (forward or deliver) from here, and no arrival event runs. The
// follow-up takes its place in same-instant order at the moment the arrival
// would have taken its own — this call (packet.go, "Events per hop" and
// "Same-instant order"). With a hook installed the head's arrival is an
// event of its own, where the hook rules.
func (c *channel) transmit(p *Packet) {
	f := c.fab
	start := f.sim.Now()
	if c.busyUntil > start {
		start = c.busyUntil
	}
	wire := c.params.wireTime(p.Size)
	c.busyUntil = start + wire
	headArrive := start + c.params.Latency
	if f.hook == nil && c.sink.headDue(p, headArrive, wire) {
		return
	}
	if c.arriveFn == nil {
		c.arriveFn = c.arriveEvent
	}
	f.sim.AtCall(headArrive, c.arriveFn, p)
}

// arriveEvent fires when a hop's head reaches the end of the channel: the
// fault hook rules on (and may mutate) the packet, then the sink receives
// the head. The wire time is worked out again from the packet's size before
// the hook can resize it; nothing else changes the size while the head is
// under way, so it is the time transmit booked.
func (c *channel) arriveEvent(a any) {
	p := a.(*Packet)
	wire := c.params.wireTime(p.Size)
	f := c.fab
	if f.hook != nil {
		s := f.sim
		v := f.hook.OnHop(c.id, p)
		if v.Duplicate {
			// Deliver an independent copy right behind the original, so a
			// consumed route or a recycled frame on one copy cannot corrupt
			// the other.
			dup := p.Clone()
			s.At(s.Now(), func() { c.sink.headArrived(dup, wire) })
		}
		if v.Drop {
			reason := v.Reason
			if reason == "" {
				reason = "fault"
			}
			f.drop(p, reason)
			return
		}
	}
	c.sink.headArrived(p, wire)
}
