// Package phase defines the span vocabulary of the full-stack tracer: every
// interval of simulated time a barrier (or any GM traffic) spends anywhere
// in the stack is attributed to one of the paper's Section 2.2 terms.
//
// The package sits below every instrumented layer (host, gm, lanai, mcp,
// network) and imports only sim and mem, so any layer can hold a *Recorder
// without an import cycle. Package trace composes recorded spans into
// decompositions and Perfetto exports.
//
// Instrumentation contract: recording is passive. A Recorder never
// schedules events and never advances clocks, so a run executes the same
// events, event for event, whether or not it is recorded. Detached, it
// costs one nil check per instrumentation site.
package phase

import (
	"cmp"
	"fmt"
	"iter"
	"math"
	"slices"

	"gmsim/internal/mem"
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

// Span is one attributed interval of simulated time. It holds no pointer —
// its label is an id into the recorder's table — so a recording is a run
// of fixed-size records the garbage collector never scans.
type Span struct {
	// Start and End bound the interval (half-open [Start, End)).
	Start, End sim.Time
	// Phase is the Section 2.2 attribution.
	Phase Phase
	// Track is the resource that was busy.
	Track Track
	// Label names the work, e.g. "bar.token", "gm_send": Recorder.Label
	// turns a name into a label and Recorder.Name turns it back.
	Label Label
	// Node owns the span. For wire spans it is the source node.
	Node int32
	// Peer is the destination node of a wire span, -1 otherwise. A
	// decomposition at node v counts wire spans with Node==v or Peer==v.
	Peer int32
}

// Label is a span's name as an index into its recorder's label table. Label
// 0 is the empty name.
type Label uint32

// Dur returns the span length.
func (s Span) Dur() sim.Time { return s.End - s.Start }

// Recorder accumulates spans. All methods are safe on a nil receiver (the
// zero-cost detached fast path): a nil Recorder records nothing and reports
// itself off.
//
// Spans come from two kinds of source. Firmware, DMA engines and the fabric
// record at the event loop's instant (Add): such a span is kept iff the
// recorder is on when it is added. A span booked ahead of the event that
// would have added it (Hold) is added when the loop passes that event. A
// host process records a call's charge when the call runs, from its own
// clock, which may lead the loop's (AddHost): such a span is kept iff its
// start lies in a recording window — [Enable instant, Disable instant) —
// whenever the call ran, so how far a process ran ahead of the loop never
// decides what the trace holds.
type Recorder struct {
	// chunks holds the loop's spans and host the host processes' runs, each
	// in recording order in fixed-size chunks, so a long recording never
	// re-copies itself; nKept counts the runs' spans inside a window.
	chunks [][]Span
	n      int
	host   [][]hostRun
	nKept  int
	// loopTotals sums the loop spans' durations per phase as they come.
	loopTotals [NumPhases]sim.Time
	// runs counts the host runs stored, compacted what the last compaction
	// left.
	runs, compacted int
	// windows are the intervals host spans are kept in, in time order; while
	// the recorder is on, the last is open (off == never).
	windows []window
	enabled bool

	// names is the label table (names[0] is ""), byName its index.
	names  []string
	byName map[string]Label

	// held are the spans Hold took ahead of their events, in the order those
	// events would run; clk is the loop that runs them.
	held []heldSpan
	clk  *sim.Simulator
}

// heldSpan is a span held for the event keyed k (sim.Simulator.Reserve).
type heldSpan struct {
	s Span
	k sim.Key
}

// hostRun is n back-to-back host spans: first, then n−1 more of its length
// and label, each starting where the one before ends.
type hostRun struct {
	first Span
	n     int
}

// span returns the run's k-th span.
func (h *hostRun) span(k int) Span {
	s, shift := h.first, sim.Time(k)*h.first.Dur()
	s.Start += shift
	s.End += shift
	return s
}

// before counts the run's spans that start before t.
func (h *hostRun) before(t sim.Time) int {
	if t <= h.first.Start {
		return 0
	}
	if t == never || h.n == 1 {
		return h.n
	}
	d := h.first.Dur()
	return int(min((t-h.first.Start+d-1)/d, sim.Time(h.n)))
}

// window is one recording interval [on, off).
type window struct{ on, off sim.Time }

// never closes the open window.
const never = sim.Time(math.MaxInt64)

// spanChunk is the number of spans (or runs) per storage chunk.
const spanChunk = 256

// NewRecorder returns an enabled recorder whose window opens at time 0.
func NewRecorder() *Recorder {
	return &Recorder{
		enabled: true, windows: []window{{0, never}},
		names: []string{""}, byName: map[string]Label{"": 0},
	}
}

// Label returns the label for name, adding name to the table the first time
// it is seen. Label 0 (the empty name) on nil.
func (r *Recorder) Label(name string) Label {
	if r == nil {
		return 0
	}
	l, ok := r.byName[name]
	if !ok {
		l = Label(len(r.names))
		r.names = append(r.names, name)
		r.byName[name] = l
	}
	return l
}

// Name returns the name of label l ("" on nil or for a label the table
// does not hold).
func (r *Recorder) Name(l Label) string {
	if r == nil || int(l) >= len(r.names) {
		return ""
	}
	return r.names[l]
}

// Names returns the label table: Names()[l] is the name of label l. The
// slice is the recorder's own; callers must not modify it.
func (r *Recorder) Names() []string {
	if r == nil {
		return nil
	}
	return r.names
}

// On reports whether loop-time spans would currently be recorded.
// Instrumentation sites guard span construction with On so a disabled or
// detached recorder costs only this check.
func (r *Recorder) On() bool { return r != nil && r.enabled }

// Enable turns recording on at loop instant at, opening a window. No-op on
// nil or when already on.
func (r *Recorder) Enable(at sim.Time) {
	if r == nil || r.enabled {
		return
	}
	r.release()
	r.enabled = true
	r.windows = append(r.windows, window{at, never})
	r.prune(at)
}

// Disable turns recording off at loop instant at, closing the window. No-op
// on nil or when already off. Host spans that start at or after at stay
// pending: a window opened later may take them.
func (r *Recorder) Disable(at sim.Time) {
	if r == nil || !r.enabled {
		return
	}
	r.release()
	r.enabled = false
	r.windows[len(r.windows)-1].off = at
	r.prune(at)
}

// Crashed drops node's host spans that start at or after loop instant at,
// when its processes died: a process that ran ahead recorded them for calls
// it did not live to make. No-op on nil.
func (r *Recorder) Crashed(node int32, at sim.Time) {
	if r == nil {
		return
	}
	r.release()
	r.compact(func(h *hostRun) bool {
		if h.first.Node == node {
			h.n = h.before(at)
		}
		return h.n > 0
	})
}

// Add records one loop-time span. Zero-length spans are dropped (they cannot
// carry time and would only bloat goldens). No-op when off.
func (r *Recorder) Add(s Span) {
	if !r.On() || s.End <= s.Start {
		return
	}
	r.release()
	r.add(s)
}

// add appends one loop-time span.
func (r *Recorder) add(s Span) {
	r.chunks = mem.AppendChunked(r.chunks, s, spanChunk)
	r.n++
	if s.Phase < NumPhases {
		r.loopTotals[s.Phase] += s.Dur()
	}
}

// Hold records a loop-time span booked ahead of the event that would have
// added it: the event keyed k on clk (sim.Simulator.Reserve) — a DMA
// transfer is booked with the firmware task that starts it, and the task's
// end would have recorded the transfer. The span lands in the recording
// where that event would have added it: before anything an event that runs
// after it adds, and kept iff the recorder is on at it. Zero-length spans
// are dropped. No-op on nil.
func (r *Recorder) Hold(s Span, k sim.Key, clk *sim.Simulator) {
	if r == nil || s.End <= s.Start {
		return
	}
	r.clk = clk
	r.release() // what is due goes now, recorded or not: held spans stay few
	i := len(r.held)
	for i > 0 && k.Less(r.held[i-1].k) {
		i--
	}
	r.held = slices.Insert(r.held, i, heldSpan{s, k})
}

// DropHeld discards node's held spans due at or after at: its card crashed
// then, and the events that were to add them never start anything. No-op on
// nil.
func (r *Recorder) DropHeld(node int32, at sim.Time) {
	if r == nil {
		return
	}
	r.held = slices.DeleteFunc(r.held, func(h heldSpan) bool { return h.s.Node == node && h.k.At >= at })
}

// release adds the held spans whose events the loop has passed
// (sim.Simulator.Passed). Every method that adds a span, moves a window or
// reads the recording releases first.
func (r *Recorder) release() {
	k := 0
	for ; k < len(r.held); k++ {
		h := &r.held[k]
		if !r.clk.Passed(h.k) {
			break
		}
		if r.enabled {
			r.add(h.s)
		}
	}
	if k > 0 {
		r.held = r.held[:copy(r.held, r.held[k:])]
	}
}

// AddHost records n back-to-back spans of a host process's clock — first,
// then n−1 more of its length and label — each kept iff its start lies in a
// recording window (see Recorder). A batch of n calls records itself as one
// run. now is the event loop's instant, before which no window can open
// any more: while the recorder is off, what lies before it is dropped as
// the recording grows, so a long warm-up costs no memory. Zero-length
// spans are dropped. A process's spans must be added in start order, as
// its clock runs.
func (r *Recorder) AddHost(first Span, n int, now sim.Time) {
	if r == nil || n < 1 || first.End <= first.Start {
		return
	}
	h := hostRun{first, n}
	r.host = mem.AppendChunked(r.host, h, spanChunk)
	r.nKept += r.inWindows(&h)
	r.runs++
	if !r.enabled && r.runs >= 2*r.compacted+spanChunk {
		r.prune(now)
	}
}

// inWindows counts h's spans that start inside a window.
func (r *Recorder) inWindows(h *hostRun) int {
	k := 0
	for _, w := range r.windows {
		k += h.before(w.off) - h.before(w.on)
	}
	return k
}

// prune drops the host runs no window holds and none can: a window opens at
// a loop instant, never before now, so a span outside every window so far
// that starts before now is gone for good.
func (r *Recorder) prune(now sim.Time) {
	r.compact(func(h *hostRun) bool { return r.inWindows(h) > 0 || h.span(h.n-1).Start >= now })
}

// compact keeps the host runs keep reports true for (keep may shorten a
// run), in place, and recounts the spans inside a window.
func (r *Recorder) compact(keep func(*hostRun) bool) {
	n := 0
	r.nKept = 0
	for _, c := range r.host {
		for i := range c {
			if keep(&c[i]) {
				r.host[n/spanChunk][n%spanChunk] = c[i]
				r.nKept += r.inWindows(&c[i])
				n++
			}
		}
	}
	for i := range r.host {
		r.host[i] = r.host[i][:min(max(n-i*spanChunk, 0), spanChunk)]
	}
	r.host = r.host[:(n+spanChunk-1)/spanChunk]
	r.runs, r.compacted = n, n
}

// Loop returns the loop's spans in recording order: the recorder's own
// chunks, read in place. Callers must not modify them. Spans' canonical
// order is these, then Host's.
func (r *Recorder) Loop() [][]Span {
	if r == nil {
		return nil
	}
	r.release()
	return r.chunks
}

// Host yields the host spans inside a window, computed from the stored runs
// in place: by node in ascending order, in start order within a node. The
// order depends on nothing but simulated time, so it is the same however
// far processes ran ahead of the loop.
func (r *Recorder) Host() iter.Seq[Span] {
	return func(yield func(Span) bool) {
		if r != nil {
			r.hostSpans(yield)
		}
	}
}

// Spans returns the recorded spans in canonical order — Loop's, then
// Host's — as a snapshot that does not grow with the recording.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.release()
	out := make([]Span, 0, r.Len())
	for _, c := range r.chunks {
		out = append(out, c...)
	}
	return slices.AppendSeq(out, r.Host())
}

// hostSpans yields the host spans inside a window, by node: a counting sort
// of the runs over the recording order, which is start order for the one
// process a node runs. Node ids are a cluster's dense indices from 0.
func (r *Recorder) hostSpans(yield func(Span) bool) {
	run := func(g int32) *hostRun { return &r.host[uint32(g)/spanChunk][uint32(g)%spanChunk] }
	hi := int32(-1)
	for _, c := range r.host {
		for i := range c {
			hi = max(hi, c[i].first.Node)
		}
	}
	end := make([]int32, hi+1) // where each node's runs end in order
	for _, c := range r.host {
		for i := range c {
			end[c[i].first.Node]++
		}
	}
	for k := 1; k <= int(hi); k++ {
		end[k] += end[k-1]
	}
	order := make([]int32, r.runs)
	for g := int32(r.runs) - 1; g >= 0; g-- {
		node := run(g).first.Node
		end[node]--
		order[end[node]] = g
	}
	// end[k] now holds where node k's runs start.
	var merged []Span // a node's spans, when its processes interleave them
	for node := int32(0); node <= hi; node++ {
		stop := int32(len(order))
		if node < hi {
			stop = end[node+1]
		}
		runs := order[end[node]:stop]
		ordered := r.startOrdered(runs, run)
		merged = merged[:0]
		for _, g := range runs {
			h := run(g)
			for _, w := range r.windows {
				for k, end := h.before(w.on), h.before(w.off); k < end; k++ {
					if !ordered {
						merged = append(merged, h.span(k))
					} else if !yield(h.span(k)) {
						return
					}
				}
			}
		}
		slices.SortStableFunc(merged, func(a, b Span) int { return cmp.Compare(a.Start, b.Start) })
		for _, s := range merged {
			if !yield(s) {
				return
			}
		}
	}
}

// startOrdered reports whether every span of runs, in that order, starts no
// earlier than the one before: then so do the spans inside a window. A
// run's spans do, so only where one run ends and the next begins needs a
// look.
func (r *Recorder) startOrdered(runs []int32, run func(int32) *hostRun) bool {
	last := sim.Time(math.MinInt64)
	for _, g := range runs {
		h := run(g)
		if h.first.Start < last {
			return false
		}
		last = h.first.Start + sim.Time(h.n-1)*h.first.Dur()
	}
	return true
}

// Len returns the number of recorded spans (Spans' length).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.release()
	return r.n + r.nKept
}

// Totals sums recorded span durations per phase (cluster-wide busy time;
// overlapping spans on different resources both count).
func (r *Recorder) Totals() [NumPhases]sim.Time {
	if r == nil {
		return [NumPhases]sim.Time{}
	}
	r.release()
	out := r.loopTotals
	for _, c := range r.host {
		for i := range c {
			out[c[i].first.Phase] += sim.Time(r.inWindows(&c[i])) * c[i].first.Dur()
		}
	}
	return out
}
