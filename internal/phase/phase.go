// Package phase defines the span vocabulary of the full-stack tracer: every
// interval of simulated time a barrier (or any GM traffic) spends anywhere
// in the stack is attributed to one of the paper's Section 2.2 terms.
//
// The package sits below every instrumented layer (host, gm, lanai, mcp,
// network) and imports only sim, so any layer can hold a *Recorder without
// an import cycle. Package trace composes recorded spans into
// decompositions and Perfetto exports.
//
// Instrumentation contract: recording is passive. A Recorder never
// schedules events, never advances clocks, and costs one nil/enabled check
// when detached or disabled, so an untraced run is bit-identical in
// simulated time to an uninstrumented one.
package phase

import (
	"fmt"

	"gmsim/internal/sim"
)

// Phase attributes a span to one Section 2.2 term. The numeric order is the
// attribution priority used by trace.Decompose when spans overlap: host CPU
// terms beat NIC terms beat DMA beat wire, so e.g. an RDMA transfer that
// overlaps firmware processing is charged to the firmware.
type Phase uint8

const (
	// HostSend is host CPU time on the data send path (gm_send): the
	// paper's host part of Send. NIC-based barriers must show zero.
	HostSend Phase = iota
	// HostRecv is host CPU time receiving data (poll, detect, process):
	// the paper's HRecv on the data path. NIC-based barriers must show
	// zero.
	HostRecv
	// HostPost is host CPU time posting barrier/collective state: provide
	// buffer and gm_barrier_send_with_callback. This is the host part of
	// Equation 2's Send term.
	HostPost
	// HostDone is host CPU time detecting and retiring a barrier or
	// collective completion event — Equation 2's HRecv term.
	HostDone
	// NICProc is LANai firmware processor time (any MCP state machine).
	NICProc
	// DMA is PCI DMA engine time (SDMA or RDMA; Track tells which).
	DMA
	// Wire is fabric time: serialization, propagation and switching
	// between injection and delivery.
	Wire

	// NumPhases counts the real phases. trace.Decompose uses the next
	// index for Idle (time attributed to no span).
	NumPhases
)

func (p Phase) String() string {
	switch p {
	case HostSend:
		return "HostSend"
	case HostRecv:
		return "HostRecv"
	case HostPost:
		return "HostPost"
	case HostDone:
		return "HostDone"
	case NICProc:
		return "NICProc"
	case DMA:
		return "DMA"
	case Wire:
		return "Wire"
	case NumPhases:
		return "Idle"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Track identifies the hardware resource a span occupied, for per-track
// timeline rendering (one Perfetto thread per track).
type Track uint8

const (
	// TrackHost is the node's host CPU.
	TrackHost Track = iota
	// TrackFW is the LANai firmware processor.
	TrackFW
	// TrackSDMA and TrackRDMA are the two PCI DMA engines.
	TrackSDMA
	TrackRDMA
	// TrackWire is the fabric (spans synthesized from inject/deliver).
	TrackWire
)

func (t Track) String() string {
	switch t {
	case TrackHost:
		return "host"
	case TrackFW:
		return "fw"
	case TrackSDMA:
		return "sdma"
	case TrackRDMA:
		return "rdma"
	case TrackWire:
		return "wire"
	default:
		return fmt.Sprintf("track(%d)", int(t))
	}
}

// Span is one attributed interval of simulated time.
type Span struct {
	// Start and End bound the interval (half-open [Start, End)).
	Start, End sim.Time
	// Phase is the Section 2.2 attribution.
	Phase Phase
	// Track is the resource that was busy.
	Track Track
	// Node owns the span. For wire spans it is the source node.
	Node int32
	// Peer is the destination node of a wire span, -1 otherwise. A
	// decomposition at node v counts wire spans with Node==v or Peer==v.
	Peer int32
	// Label names the work, e.g. "bar.token", "gm_send". Labels are
	// static strings so recording does not allocate per span.
	Label string
}

// Dur returns the span length.
func (s Span) Dur() sim.Time { return s.End - s.Start }

func (s Span) String() string {
	peer := ""
	if s.Peer >= 0 {
		peer = fmt.Sprintf("->%d", s.Peer)
	}
	return fmt.Sprintf("%10.2fus %-8s node=%d%s %-4s %-20s +%.2fus",
		s.Start.Micros(), s.Phase, s.Node, peer, s.Track, s.Label, s.Dur().Micros())
}

// Recorder accumulates spans. All methods are safe on a nil receiver (the
// zero-cost detached fast path): a nil Recorder records nothing and reports
// itself off.
type Recorder struct {
	// chunks holds the spans in fixed-size chunks, so a long recording
	// never re-copies itself; flat caches the contiguous form Spans hands
	// out.
	chunks  [][]Span
	n       int
	flat    []Span
	enabled bool
}

// spanChunk is the number of spans per storage chunk.
const spanChunk = 512

// NewRecorder returns an enabled recorder.
func NewRecorder() *Recorder { return &Recorder{enabled: true} }

// On reports whether spans would currently be recorded. Instrumentation
// sites guard span construction with On so a disabled or detached recorder
// costs only this check.
func (r *Recorder) On() bool { return r != nil && r.enabled }

// Enable turns recording on. No-op on nil.
func (r *Recorder) Enable() {
	if r != nil {
		r.enabled = true
	}
}

// Disable turns recording off. No-op on nil.
func (r *Recorder) Disable() {
	if r != nil {
		r.enabled = false
	}
}

// Reset discards recorded spans. No-op on nil.
func (r *Recorder) Reset() {
	if r != nil {
		r.chunks, r.n, r.flat = nil, 0, nil
	}
}

// Add records one span. Zero-length spans are dropped (they cannot carry
// time and would only bloat goldens). No-op when off.
func (r *Recorder) Add(s Span) {
	if !r.On() || s.End <= s.Start {
		return
	}
	last := len(r.chunks) - 1
	if last < 0 || len(r.chunks[last]) == spanChunk {
		r.chunks = append(r.chunks, make([]Span, 0, spanChunk))
		last++
	}
	r.chunks[last] = append(r.chunks[last], s)
	r.n++
}

// Spans returns the recorded spans in recording order. The slice is a
// snapshot: it does not grow with the recording.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	if len(r.flat) != r.n {
		r.flat = make([]Span, 0, r.n)
		for _, c := range r.chunks {
			r.flat = append(r.flat, c...)
		}
	}
	return r.flat
}

// Len returns the number of recorded spans.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Totals sums recorded span durations per phase (cluster-wide busy time;
// overlapping spans on different resources both count).
func (r *Recorder) Totals() [NumPhases]sim.Time {
	var out [NumPhases]sim.Time
	if r == nil {
		return out
	}
	for _, c := range r.chunks {
		for i := range c {
			out[c[i].Phase] += c[i].Dur()
		}
	}
	return out
}
