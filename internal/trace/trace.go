// Package trace records timestamped fabric events so experiments can be
// inspected at packet granularity: per-message wire latencies, event
// timelines, and Figure-2 style reconstructions of what the NIC actually
// did during a barrier.
//
// Attached to a cluster (Attach), the recorder additionally collects
// full-stack phase spans — host API costs, firmware tasks, DMA transfers,
// and wire segments synthesized from inject/deliver pairs — attributed to
// the paper's Section 2.2 terms. Decompose folds the spans into a
// per-phase latency breakdown whose parts sum bit-exactly to the measured
// window, and WriteChrome exports the whole timeline as Chrome
// trace-event JSON for Perfetto.
package trace

import (
	"fmt"
	"strings"

	"gmsim/internal/cluster"
	"gmsim/internal/mcp"
	"gmsim/internal/network"
	"gmsim/internal/phase"
	"gmsim/internal/sim"
)

// Kind classifies a recorded event.
type Kind int

const (
	// Inject: a NIC began transmitting a packet.
	Inject Kind = iota
	// Deliver: a packet fully arrived at its destination NIC.
	Deliver
	// Drop: the fabric discarded a packet.
	Drop
	// Fault: the fault layer acted — a link went down or up, a packet was
	// corrupted, truncated or duplicated, a NIC stalled. The Reason field
	// carries the fault kind and detail.
	Fault
	// Hop: a switch forwarded a packet head out of one of its ports. The
	// Reason field carries "swS:pP"; on a multi-switch fabric a packet
	// whose trace shows two or more hops crossed a trunk.
	Hop
)

func (k Kind) String() string {
	switch k {
	case Inject:
		return "inject"
	case Deliver:
		return "deliver"
	case Drop:
		return "drop"
	case Fault:
		return "fault"
	case Hop:
		return "hop"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one recorded fabric event.
type Event struct {
	At     sim.Time
	Kind   Kind
	Src    network.NodeID
	Dst    network.NodeID
	Frame  mcp.FrameKind
	Seq    uint32
	Size   int
	Reason string // drop reason
	// packet numbers the packet within the recording, from 1 at its
	// injection; 0 for a packet injected while the recorder was off (or
	// before a Reset) and for events tied to no packet.
	packet uint64
}

func (e Event) String() string {
	return fmt.Sprintf("%10.2fus %-7s %v %d->%d seq=%d size=%d %s",
		e.At.Micros(), e.Kind, e.Frame, e.Src, e.Dst, e.Seq, e.Size, e.Reason)
}

// eventChunk is the number of events per storage chunk.
const eventChunk = 512

// Recorder implements network.Observer and accumulates events.
type Recorder struct {
	sim *sim.Simulator
	// events holds the recording in fixed-size chunks, so a long run never
	// re-copies what it has recorded; flat caches the contiguous form
	// Events hands out.
	events  [][]Event
	nEvents int
	flat    []Event
	enabled bool
	// hopReasons interns the "swS:pP" reason of hop events: one string per
	// (switch, port), not one per forwarded packet.
	hopReasons map[[2]int]string

	// phases collects full-stack spans when the recorder was installed
	// with Attach; nil for fabric-only recorders (NewRecorder).
	phases *phase.Recorder
	// inFlight holds, for every packet injected while recording and not yet
	// delivered or dropped, its number and injection time: events carry the
	// number, and a delivery synthesizes the wire span from the time. The
	// entry goes at delivery, before the fabric reuses the packet.
	inFlight map[*network.Packet]flight
	packets  uint64 // numbers handed out
}

// flight is one packet on the wire, as the recorder saw it injected.
type flight struct {
	packet uint64
	at     sim.Time
}

// NewRecorder creates a fabric-only recorder and installs it on the fabric.
// Recording starts enabled.
func NewRecorder(f *network.Fabric) *Recorder {
	r := &Recorder{sim: f.Sim(), enabled: true, inFlight: make(map[*network.Packet]flight)}
	f.SetObserver(r)
	return r
}

// Attach creates a full-stack recorder on a cluster: fabric events plus
// phase spans from every host process, firmware processor, DMA engine and
// wire segment. Call before SpawnAll so processes pick up the recorder.
// Recording starts enabled; a disabled (or detached) recorder leaves
// simulated time bit-identical to an untraced run.
func Attach(cl *cluster.Cluster) *Recorder {
	r := NewRecorder(cl.Fabric())
	r.phases = phase.NewRecorder()
	cl.SetPhaseRecorder(r.phases)
	return r
}

// Phases returns the attached phase recorder (nil for fabric-only
// recorders).
func (r *Recorder) Phases() *phase.Recorder { return r.phases }

// Enable and Disable gate recording (e.g. record only the steady state).
// Both gates toggle together at the event loop's instant: fabric events and
// phase spans (a host process's spans by the time they start, see
// phase.Recorder).
func (r *Recorder) Enable() {
	r.enabled = true
	r.phases.Enable(r.sim.Now())
}

func (r *Recorder) Disable() {
	r.enabled = false
	r.phases.Disable(r.sim.Now())
}

// Reset discards recorded events and spans, and forgets packets in flight:
// one injected before the reset and delivered after it leaves no wire span
// (the span would start before the recording does).
func (r *Recorder) Reset() {
	r.events, r.nEvents, r.flat = nil, 0, nil
	clear(r.inFlight)
	r.phases.Reset(r.sim.Now())
}

// Events returns the recorded events in time order. The slice is a
// snapshot: it does not grow with the recording.
func (r *Recorder) Events() []Event {
	if len(r.flat) != r.nEvents {
		r.flat = make([]Event, 0, r.nEvents)
		for _, c := range r.events {
			r.flat = append(r.flat, c...)
		}
	}
	return r.flat
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return r.nEvents }

// add appends one event to the recording.
func (r *Recorder) add(ev Event) {
	last := len(r.events) - 1
	if last < 0 || len(r.events[last]) == eventChunk {
		r.events = append(r.events, make([]Event, 0, eventChunk))
		last++
	}
	r.events[last] = append(r.events[last], ev)
	r.nEvents++
}

func (r *Recorder) record(kind Kind, p *network.Packet, reason string) {
	if !r.enabled {
		return
	}
	ev := Event{
		At:     r.sim.Now(),
		Kind:   kind,
		Src:    p.Src,
		Dst:    p.Dst,
		Size:   p.Size,
		Reason: reason,
		packet: r.inFlight[p].packet,
	}
	switch pl := p.Payload.(type) {
	case *mcp.Frame:
		ev.Frame = pl.Kind
		ev.Seq = pl.Seq
	case []byte:
		// A corrupted wire image: decode if the damage spared the header
		// so the timeline still shows what the frame was.
		if f, err := mcp.DecodeFrame(pl); err == nil {
			ev.Frame = f.Kind
			ev.Seq = f.Seq
		}
	}
	r.add(ev)
}

// PacketInjected implements network.Observer: a packet injected while
// recording gets the next number.
func (r *Recorder) PacketInjected(p *network.Packet) {
	if r.enabled {
		r.packets++
		r.inFlight[p] = flight{r.packets, r.sim.Now()}
	}
	r.record(Inject, p, "")
}

// PacketDelivered implements network.Observer. On a full-stack recorder
// the inject->deliver pair becomes one Wire span (serialization +
// propagation + switching, charged to the source node with the
// destination as peer).
func (r *Recorder) PacketDelivered(p *network.Packet) {
	r.record(Deliver, p, "")
	if fl, ok := r.inFlight[p]; ok {
		delete(r.inFlight, p)
		r.phases.Add(phase.Span{
			Start: fl.at, End: r.sim.Now(),
			Phase: phase.Wire, Track: phase.TrackWire,
			Node: int32(p.Src), Peer: int32(p.Dst),
			Label: wireLabel(p),
		})
	}
}

// PacketDropped implements network.Observer.
func (r *Recorder) PacketDropped(p *network.Packet, reason string) {
	r.record(Drop, p, reason)
	delete(r.inFlight, p)
}

// PacketForwarded implements network.HopObserver: switch forwarding
// decisions appear in the timeline, so multi-switch traces show trunk
// crossings.
func (r *Recorder) PacketForwarded(p *network.Packet, swID, port int) {
	if !r.enabled {
		return
	}
	key := [2]int{swID, port}
	reason, ok := r.hopReasons[key]
	if !ok {
		if r.hopReasons == nil {
			r.hopReasons = make(map[[2]int]string)
		}
		reason = fmt.Sprintf("sw%d:p%d", swID, port)
		r.hopReasons[key] = reason
	}
	r.record(Hop, p, reason)
}

// wireLabel names a wire span by its frame kind. Static strings: span
// recording must not allocate per packet.
func wireLabel(p *network.Packet) string {
	f, ok := p.Payload.(*mcp.Frame)
	if !ok {
		return "wire"
	}
	switch f.Kind {
	case mcp.DataFrame:
		return "wire.data"
	case mcp.BarrierPEFrame:
		return "wire.pe"
	case mcp.BarrierGatherFrame:
		return "wire.gather"
	case mcp.BarrierBcastFrame:
		return "wire.bcast"
	case mcp.ReduceFrame, mcp.CollBcastFrame:
		return "wire.coll"
	default:
		return "wire.ctl"
	}
}

// FaultInjected implements network.FaultObserver: fault-layer actions show
// up in the timeline alongside the traffic they disturb. p may be nil for
// faults not tied to a packet (link flaps, NIC stalls).
func (r *Recorder) FaultInjected(kind string, p *network.Packet, detail string) {
	reason := kind
	if detail != "" {
		reason += " " + detail
	}
	if p == nil {
		if !r.enabled {
			return
		}
		r.add(Event{At: r.sim.Now(), Kind: Fault, Reason: reason})
		return
	}
	r.record(Fault, p, reason)
}

// WireLatency pairs injections with deliveries of the same packet and
// returns the per-packet wire latencies in time order.
type WireLatency struct {
	Src, Dst network.NodeID
	Frame    mcp.FrameKind
	Inject   sim.Time
	Deliver  sim.Time
}

// Latency returns the wire time.
func (w WireLatency) Latency() sim.Time { return w.Deliver - w.Inject }

// WireLatencies extracts inject->deliver pairs from the recording.
func (r *Recorder) WireLatencies() []WireLatency {
	injected := make(map[uint64]sim.Time)
	var out []WireLatency
	for _, e := range r.Events() {
		switch e.Kind {
		case Inject:
			injected[e.packet] = e.At
		case Deliver:
			if t0, ok := injected[e.packet]; ok {
				out = append(out, WireLatency{
					Src: e.Src, Dst: e.Dst, Frame: e.Frame,
					Inject: t0, Deliver: e.At,
				})
				delete(injected, e.packet)
			}
		}
	}
	return out
}

// PacketHops summarizes the switch path of one traced packet.
type PacketHops struct {
	Src, Dst network.NodeID
	Frame    mcp.FrameKind
	Hops     int
}

// PacketHopCounts groups hop events by packet, in injection order. On a
// multi-switch fabric a count of two or more means the packet crossed a
// trunk; on a single crossbar every packet shows exactly one hop.
func (r *Recorder) PacketHopCounts() []PacketHops {
	hops := make(map[uint64]int)
	for _, e := range r.Events() {
		if e.Kind == Hop {
			hops[e.packet]++
		}
	}
	var out []PacketHops
	for _, e := range r.Events() {
		if e.Kind == Inject {
			out = append(out, PacketHops{Src: e.Src, Dst: e.Dst, Frame: e.Frame, Hops: hops[e.packet]})
		}
	}
	return out
}

// Counts summarizes the recording: events per (kind, frame kind).
func (r *Recorder) Counts() map[string]int {
	out := make(map[string]int)
	for _, e := range r.Events() {
		out[fmt.Sprintf("%s/%s", e.Kind, e.Frame)]++
	}
	return out
}

// Dump renders the recording as text, one event per line.
func (r *Recorder) Dump() string {
	var b strings.Builder
	for _, e := range r.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
