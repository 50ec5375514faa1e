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
	"gmsim/internal/mem"
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
	Reason string // drop or fault reason; a hop's "swS:pP"
	// packet numbers the packet within the recording (entry.packet).
	packet uint32
}

func (e Event) String() string {
	return fmt.Sprintf("%10.2fus %-7s %v %d->%d seq=%d size=%d %s",
		e.At.Micros(), e.Kind, e.Frame, e.Src, e.Dst, e.Seq, e.Size, e.Reason)
}

// entry is an event as the recorder keeps it: fixed-size and pointer-free,
// so the garbage collector never scans a recording. Node ids and sizes are
// kept in 32 bits, frame kinds in 16. A reason is an index into the
// recorder's reason table; a hop keeps its switch and output port instead,
// rendered "swS:pP" only when read.
type entry struct {
	at sim.Time
	// packet is the packet's number, its Inject's ordinal (see
	// Recorder.PacketInjected); 0 for a packet injected while the recorder
	// was off and for events tied to no packet.
	packet   uint32
	src, dst int32
	seq      uint32
	size     int32
	detail   int32 // reason index, or a hop's switch
	port     int32 // a hop's output port
	kind     uint8
	frame    int16
}

// eventChunk is the number of events per storage chunk.
const eventChunk = 256

// Recorder implements network.Observer and accumulates events.
type Recorder struct {
	sim *sim.Simulator
	// events holds the recording in fixed-size chunks, so a long run never
	// re-copies what it has recorded.
	events  [][]entry
	nEvents int
	enabled bool
	// reasons is the table drop and fault reasons index (reasons[0] is ""),
	// byReason its index by a fault's kind and detail (a drop's reason and
	// "").
	reasons  []string
	byReason map[[2]string]int32

	// phases collects full-stack spans when the recorder was installed
	// with Attach; nil for fabric-only recorders (NewRecorder). wire holds
	// its labels of wireNames.
	phases *phase.Recorder
	wire   [len(wireNames)]phase.Label
}

// NewRecorder creates a fabric-only recorder and installs it on the fabric.
// Recording starts enabled.
func NewRecorder(f *network.Fabric) *Recorder {
	r := &Recorder{sim: f.Sim(), enabled: true, reasons: []string{""}}
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
	for i, name := range wireNames {
		r.wire[i] = r.phases.Label(name)
	}
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

// Events returns the recorded events in time order. The slice is a
// snapshot: it does not grow with the recording.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, r.nEvents)
	for _, c := range r.events {
		for i := range c {
			out = append(out, r.event(&c[i]))
		}
	}
	return out
}

// event renders a stored entry.
func (r *Recorder) event(e *entry) Event {
	ev := Event{
		At: e.at, Kind: Kind(e.kind), Src: network.NodeID(e.src), Dst: network.NodeID(e.dst),
		Frame: mcp.FrameKind(e.frame), Seq: e.seq, Size: int(e.size), packet: e.packet,
	}
	if ev.Kind == Hop {
		ev.Reason = fmt.Sprintf("sw%d:p%d", e.detail, e.port)
	} else {
		ev.Reason = r.reasons[e.detail]
	}
	return ev
}

// add appends one event to the recording.
func (r *Recorder) add(e entry) {
	r.events = mem.AppendChunked(r.events, e, eventChunk)
	r.nEvents++
}

// record appends one event about p, with its reason index or hop switch
// and port, when recording.
func (r *Recorder) record(kind Kind, p *network.Packet, detail, port int32) {
	if !r.enabled {
		return
	}
	e := entry{
		at: r.sim.Now(), kind: uint8(kind),
		src: int32(p.Src), dst: int32(p.Dst), size: int32(p.Size),
		detail: detail, port: port,
	}
	e.packet = p.Mark
	switch pl := p.Payload.(type) {
	case *mcp.Frame:
		e.frame, e.seq = int16(pl.Kind), pl.Seq
	case []byte:
		// A corrupted wire image: decode if the damage spared the header
		// so the timeline still shows what the frame was.
		if f, err := mcp.DecodeFrame(pl); err == nil {
			e.frame, e.seq = int16(f.Kind), f.Seq
		}
	}
	r.add(e)
}

// reason returns the reason index of a fault's kind and detail (a drop's
// reason and ""), adding "kind detail" to the table the first time.
func (r *Recorder) reason(kind, detail string) int32 {
	key := [2]string{kind, detail}
	id, ok := r.byReason[key]
	if !ok {
		if r.byReason == nil {
			r.byReason = make(map[[2]string]int32)
		}
		s := kind
		if detail != "" {
			s += " " + detail
		}
		id = int32(len(r.reasons))
		r.reasons = append(r.reasons, s)
		r.byReason[key] = id
	}
	return id
}

// PacketInjected implements network.Observer: a packet injected while
// recording is marked with its Inject's ordinal among the recorded events
// (1 for the first), which its events carry and where its delivery finds
// the injection instant, so the recorder keeps no record of packets in
// flight; any other injection clears the mark. (Ordinals are 32 bits: a
// recording holds fewer than 4 billion events.)
func (r *Recorder) PacketInjected(p *network.Packet) {
	if !r.enabled {
		p.Mark = 0
		return
	}
	p.Mark = uint32(r.nEvents) + 1
	r.record(Inject, p, 0, 0)
}

// PacketDelivered implements network.Observer. On a full-stack recorder
// the inject->deliver pair becomes one Wire span (serialization +
// propagation + switching, charged to the source node with the
// destination as peer).
func (r *Recorder) PacketDelivered(p *network.Packet) {
	r.record(Deliver, p, 0, 0)
	if p.Mark == 0 {
		return
	}
	i := int(p.Mark - 1)
	p.Mark = 0
	if r.phases.On() {
		r.phases.Add(phase.Span{
			Start: r.events[i/eventChunk][i%eventChunk].at, End: r.sim.Now(),
			Phase: phase.Wire, Track: phase.TrackWire,
			Node: int32(p.Src), Peer: int32(p.Dst),
			Label: r.wire[wireClass(p)],
		})
	}
}

// PacketDropped implements network.Observer.
func (r *Recorder) PacketDropped(p *network.Packet, reason string) {
	if r.enabled {
		r.record(Drop, p, r.reason(reason, ""), 0)
	}
	p.Mark = 0
}

// PacketForwarded implements network.Observer: switch forwarding
// decisions appear in the timeline, so multi-switch traces show trunk
// crossings.
func (r *Recorder) PacketForwarded(p *network.Packet, swID, port int) {
	r.record(Hop, p, int32(swID), int32(port))
}

// wireNames label wire spans by frame kind: wireNames[wireClass(p)].
var wireNames = [...]string{"wire", "wire.data", "wire.pe", "wire.gather", "wire.bcast", "wire.coll", "wire.ctl"}

// wireClass indexes wireNames by the kind of frame p carries.
func wireClass(p *network.Packet) int {
	f, ok := p.Payload.(*mcp.Frame)
	if !ok {
		return 0
	}
	switch f.Kind {
	case mcp.DataFrame:
		return 1
	case mcp.BarrierPEFrame:
		return 2
	case mcp.BarrierGatherFrame:
		return 3
	case mcp.BarrierBcastFrame:
		return 4
	case mcp.ReduceFrame, mcp.CollBcastFrame:
		return 5
	default:
		return 6
	}
}

// FaultInjected implements network.Observer: fault-layer actions show
// up in the timeline alongside the traffic they disturb. p may be nil for
// faults not tied to a packet (link flaps, NIC stalls).
func (r *Recorder) FaultInjected(kind string, p *network.Packet, detail string) {
	if !r.enabled {
		return
	}
	if p == nil {
		r.add(entry{at: r.sim.Now(), kind: uint8(Fault), detail: r.reason(kind, detail)})
		return
	}
	r.record(Fault, p, r.reason(kind, detail), 0)
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
	injected := make(map[uint32]sim.Time)
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
	hops := make(map[uint32]int)
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
