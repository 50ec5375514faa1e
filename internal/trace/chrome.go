package trace

import (
	"encoding/json"
	"io"
	"iter"
	"math/bits"
	"slices"
	"strconv"
	"sync"

	"gmsim/internal/mcp"
	"gmsim/internal/phase"
)

// wirePID is the Chrome-trace process id of the synthetic "wire" process.
// Node pids are node+1 (pid 0 renders oddly in Perfetto), so any constant
// far above a plausible node count is safe.
const wirePID = 1000000

// numFrames counts the frame kinds the firmware sends.
const numFrames = mcp.BarrierProbeFrame + 1

// Node spans' suffixes are cached per node, host track and phase.
const (
	numTracks = int(phase.TrackRDMA) + 1
	numCats   = int(phase.NumPhases) + 1
)

// instantTail follows an instant's name up to its timestamp.
const instantTail = `","ph":"i","ts":`

// frag locates one rendered fragment in exporter.frags.
type frag struct{ from, to uint32 }

// exporter is one export's state, reused between exports (a service worker
// exports one ~1 MB trace per cold request): the output, and the JSON
// fragments records share, rendered once into frags, so that writing a
// record is a few copies and its numbers. A span is its label's prefix
// (name up to its timestamp), the timestamp, the duration, and a suffix per
// (pid, tid, cat); an instant is a prefix per (kind, frame kind), its
// reason, the timestamp, a suffix per (wire thread, kind) up to the
// sequence number, then its numbers.
type exporter struct {
	b, frags []byte
	// slot numbers the nodes with a span off the wire, in the order met;
	// tracks[slot-1] holds a node's track bits. tid numbers the wire
	// threads by pairKey, in (src, dst) order once pairs has run.
	slot, tid ids
	tracks    []uint8
	nodeList  []int32
	pairList  []uint64

	host   []phase.Span // the host spans, in order
	label  []frag       // per span label: {"name":"<label>","ph":"X","ts":
	reason []frag       // per reason: [ <reason>]","ph":"i","ts":
	// On first use: per node slot, track and phase, ,"pid":P,"tid":T,"cat":"<phase>"},
	// per wire thread and phase the same; per wire thread and event kind,
	// ,"pid":1000000,"tid":T,"cat":"<kind>","s":"t","args":{"seq":
	nodeSuffix  []frag
	wireSuffix  []frag
	eventSuffix []frag
	name        [Hop + 1][numFrames]frag // per kind and frame kind, on first use: {"name":"<kind> <frame>","ph":"i","ts":
}

var exporters = sync.Pool{New: func() any { return new(exporter) }}

// pairKey packs a wire thread's (src, dst) so that uint64 order is the
// (src, dst) order of the signed ids.
func pairKey(src, dst int32) uint64 {
	return uint64(uint32(src)^1<<31)<<32 | uint64(uint32(dst)^1<<31)
}

func pairOf(k uint64) (src, dst int32) {
	return int32(uint32(k>>32) ^ 1<<31), int32(uint32(k) ^ 1<<31)
}

// nodeKey is node's key in exporter.slot.
func nodeKey(node int32) uint64 { return uint64(uint32(node)) }

// ids numbers the keys an export meets from 1: open addressing in a
// power-of-two table kept at most half full, probed from the key's
// Fibonacci hash. It holds only the keys present, whatever their values,
// and a cluster's node ids or wire threads almost always sit in their
// first cell; with a Go map, one lookup per record cost the export half
// again its time.
type ids struct {
	cells []idCell
	n     int32 // keys held
	shift uint8 // 64 - log2(len(cells))
}

type idCell struct {
	key uint64
	num int32 // 0: the cell is free
}

// reset forgets every key.
func (t *ids) reset() {
	if t.cells == nil {
		t.resize(16)
	}
	clear(t.cells)
	t.n = 0
}

// cell returns the cell holding k, or the free cell k would take.
func (t *ids) cell(k uint64) *idCell {
	mask := len(t.cells) - 1
	for i := int(k * 0x9e3779b97f4a7c15 >> t.shift); ; i = (i + 1) & mask {
		if c := &t.cells[i]; c.num == 0 || c.key == k {
			return c
		}
	}
}

// add returns k's number, giving it the next one if k is new.
func (t *ids) add(k uint64) int32 {
	c := t.cell(k)
	if c.num == 0 {
		if 2*int(t.n+1) > len(t.cells) {
			t.resize(2 * len(t.cells))
			c = t.cell(k)
		}
		t.n++
		*c = idCell{k, t.n}
	}
	return c.num
}

// get returns k's number, or 0.
func (t *ids) get(k uint64) int32 { return t.cell(k).num }

// set renumbers k, which t holds.
func (t *ids) set(k uint64, n int32) { t.cell(k).num = n }

// keys yields the keys t holds.
func (t *ids) keys() iter.Seq[uint64] {
	return func(yield func(uint64) bool) {
		for _, c := range t.cells {
			if c.num != 0 && !yield(c.key) {
				return
			}
		}
	}
}

// resize rehashes t into size cells, a power of two.
func (t *ids) resize(size int) {
	old := t.cells
	t.cells = make([]idCell, size)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for _, c := range old {
		if c.num != 0 {
			*t.cell(c.key) = c
		}
	}
}

// WriteChrome exports the recording as Chrome trace-event JSON, loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing. Each node becomes a
// process with one thread per hardware track (host, fw, sdma, rdma); a
// synthetic "wire" process holds one thread per (src, dst) pair carrying
// the wire spans, with fabric events (inject, deliver, drop, hop, fault)
// as instants on the matching thread.
//
// The bytes are what encoding/json writes for the equivalent slice of
// event structs (field order, omitted empty fields, HTML-escaped strings,
// shortest-float microseconds, sorted args, trailing newline): simd stores
// and serves them content-addressed. They are appended by hand because the
// reflection encoder cost three times the simulation it described; the
// tests hold the two to byte equality. The recording is read in place.
func (r *Recorder) WriteChrome(w io.Writer) error {
	x := exporters.Get().(*exporter)
	defer exporters.Put(x)
	return x.write(r, w)
}

// write exports r to w with x's tables and buffers.
func (x *exporter) write(r *Recorder, w io.Writer) error {
	// The host spans are worked out from their runs once, for both passes.
	loop := r.phases.Loop()
	x.host = slices.AppendSeq(x.host[:0], r.phases.Host())

	// Discover node tracks and wire pairs first so metadata events lead the
	// file and thread ids are assigned deterministically.
	x.reset()
	for _, c := range loop {
		for i := range c {
			x.noteSpan(&c[i])
		}
	}
	for i := range x.host {
		x.noteSpan(&x.host[i])
	}
	for _, c := range r.events {
		for i := range c {
			x.tid.add(pairKey(c[i].src, c[i].dst))
		}
	}
	nodes := x.nodes()
	pairs := x.pairs()

	// A span is ~100 bytes, an instant ~130, a metadata line ~90.
	b := x.b
	if need := 64 + 144*(r.phases.Len()+r.nEvents) + 96*(5*len(nodes)+len(pairs)+1); cap(b) < need {
		b = make([]byte, 0, need)
	}
	b = append(b, `{"traceEvents":[`...)
	for _, n := range nodes {
		pid := int64(n) + 1
		b = appendMeta(b, "process_name", pid, 0)
		b = append(b, "node "...)
		b = strconv.AppendInt(b, int64(n), 10)
		b = append(b, `"}},`...)
		tracks := x.tracks[x.slot.get(nodeKey(n))-1]
		for t := phase.TrackHost; t <= phase.TrackRDMA; t++ {
			if tracks&(1<<t) != 0 {
				b = appendMeta(b, "thread_name", pid, int64(t))
				b = appendStringBody(b, t.String())
				b = append(b, `"}},`...)
			}
		}
	}
	if len(pairs) > 0 {
		b = appendMeta(b, "process_name", wirePID, 0)
		b = append(b, `wire"}},`...)
		for i, k := range pairs {
			src, dst := pairOf(k)
			b = appendMeta(b, "thread_name", wirePID, int64(i+1))
			b = strconv.AppendInt(b, int64(src), 10)
			b = append(b, '-', '\\', 'u', '0', '0', '3', 'e') // "->": encoding/json HTML-escapes the '>'
			b = strconv.AppendInt(b, int64(dst), 10)
			b = append(b, `"}},`...)
		}
	}

	x.render(r)
	for _, c := range loop {
		for i := range c {
			b = x.appendSpan(b, &c[i])
		}
	}
	for i := range x.host {
		b = x.appendSpan(b, &x.host[i])
	}

	for _, c := range r.events {
		for i := range c {
			b = x.appendEvent(b, &c[i])
		}
	}

	if last := len(b) - 1; b[last] == ',' {
		b[last] = ']'
	} else { // no events: encoding/json writes a nil slice as null
		b = append(b[:last], "null"...)
	}
	b = append(b, `,"displayTimeUnit":"ns"}`+"\n"...)
	x.b = b
	_, err := w.Write(b)
	return err
}

// appendEvent appends one fabric event as an instant.
func (x *exporter) appendEvent(b []byte, e *entry) []byte {
	kind := Kind(e.kind)
	var f frag
	if kind <= Hop && e.frame >= 0 && e.frame < int16(numFrames) {
		if f = x.name[kind][e.frame]; f.to == 0 {
			f = x.fragment(append(appendEventName(x.frags, kind, mcp.FrameKind(e.frame)), instantTail...))
			x.name[kind][e.frame] = f
		}
	} else {
		f = x.fragment(append(appendEventName(x.frags, kind, mcp.FrameKind(e.frame)), instantTail...))
	}
	switch {
	case kind == Hop:
		b = x.put(b, frag{f.from, f.to - uint32(len(instantTail))})
		b = append(b, " sw"...)
		b = strconv.AppendInt(b, int64(e.detail), 10)
		b = append(b, ":p"...)
		b = strconv.AppendInt(b, int64(e.port), 10)
		b = append(b, instantTail...)
	case e.detail != 0:
		b = x.put(b, frag{f.from, f.to - uint32(len(instantTail))})
		b = x.put(b, x.reason[e.detail])
	default:
		b = x.put(b, f)
	}
	b = appendMicros(b, int64(e.at))
	tid := x.tid.get(pairKey(e.src, e.dst))
	if kind <= Hop {
		f := &x.eventSuffix[(tid-1)*int32(Hop+1)+int32(kind)]
		if f.to == 0 {
			*f = x.fragment(appendKindCat(appendPidTid(x.frags, wirePID, int64(tid)), kind))
		}
		b = x.put(b, *f)
	} else {
		b = appendKindCat(appendPidTid(b, wirePID, int64(tid)), kind)
	}
	b = appendUint(b, uint64(e.seq))
	b = append(b, `,"size":`...)
	if e.size >= 0 {
		b = appendUint(b, uint64(e.size))
	} else {
		b = strconv.AppendInt(b, int64(e.size), 10)
	}
	return append(b, `}},`...)
}

// appendSpan appends one span.
func (x *exporter) appendSpan(b []byte, s *phase.Span) []byte {
	if int(s.Label) < len(x.label) {
		b = x.put(b, x.label[s.Label])
	} else { // a label no table holds is nameless
		b = append(b, `{"name":"","ph":"X","ts":`...)
	}
	b = appendMicros(b, int64(s.Start))
	if d := s.Dur(); d != 0 {
		b = appendMicros(append(b, `,"dur":`...), int64(d))
	}
	return x.spanSuffix(b, s)
}

// spanSuffix appends a span's pid, tid and category and closes it.
func (x *exporter) spanSuffix(b []byte, s *phase.Span) []byte {
	var f *frag
	pid, tid := int64(s.Node)+1, int64(s.Track)
	if s.Track == phase.TrackWire {
		t := x.tid.get(pairKey(s.Node, s.Peer))
		pid, tid = wirePID, int64(t)
		if int(s.Phase) < numCats {
			f = &x.wireSuffix[int(t-1)*numCats+int(s.Phase)]
		}
	} else if int(s.Phase) < numCats && int(s.Track) < numTracks {
		n := int(x.slot.get(nodeKey(s.Node)) - 1)
		f = &x.nodeSuffix[(n*numTracks+int(s.Track))*numCats+int(s.Phase)]
	}
	if f == nil {
		return appendCat(appendPidTid(b, pid, tid), s.Phase)
	}
	if f.to == 0 {
		*f = x.fragment(appendCat(appendPidTid(x.frags, pid, tid), s.Phase))
	}
	return x.put(b, *f)
}

// reset empties x for an export.
func (x *exporter) reset() {
	x.b, x.frags, x.tracks = x.b[:0], x.frags[:0], x.tracks[:0]
	x.slot.reset()
	x.tid.reset()
	x.name = [Hop + 1][numFrames]frag{}
}

// grown returns s resliced to length n, zeroed.
func grown[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// noteSpan records s's wire thread, or its node's track.
func (x *exporter) noteSpan(s *phase.Span) {
	if s.Track == phase.TrackWire {
		x.tid.add(pairKey(s.Node, s.Peer))
		return
	}
	n := x.slot.add(nodeKey(s.Node))
	if int(n) > len(x.tracks) {
		x.tracks = append(x.tracks, 0)
	}
	if s.Track <= phase.TrackRDMA {
		x.tracks[n-1] |= 1 << s.Track
	}
}

// nodes lists the nodes with a span off the wire, in ascending order.
func (x *exporter) nodes() []int32 {
	out := x.nodeList[:0]
	for k := range x.slot.keys() {
		out = append(out, int32(k))
	}
	slices.Sort(out)
	x.nodeSuffix = grown(x.nodeSuffix, len(out)*numTracks*numCats)
	x.nodeList = out
	return out
}

// pairs lists the wire threads in (src, dst) order and numbers them from 1.
func (x *exporter) pairs() []uint64 {
	out := slices.AppendSeq(x.pairList[:0], x.tid.keys())
	slices.Sort(out)
	for i, k := range out {
		x.tid.set(k, int32(i+1))
	}
	x.wireSuffix = grown(x.wireSuffix, len(out)*numCats)
	x.eventSuffix = grown(x.eventSuffix, len(out)*int(Hop+1))
	x.pairList = out
	return out
}

// render fills the fragments of every label and reason.
func (x *exporter) render(r *Recorder) {
	x.label = x.label[:0]
	for _, name := range r.phases.Names() {
		b := appendStringBody(append(x.frags, `{"name":"`...), name)
		x.label = append(x.label, x.fragment(append(b, `","ph":"X","ts":`...)))
	}
	x.reason = x.reason[:0]
	for _, s := range r.reasons {
		b := x.frags
		if s != "" {
			b = appendStringBody(append(b, ' '), s)
		}
		x.reason = append(x.reason, x.fragment(append(b, instantTail...)))
	}
}

// fragment records what b appended to x.frags as a fragment.
func (x *exporter) fragment(b []byte) frag {
	f := frag{uint32(len(x.frags)), uint32(len(b))}
	x.frags = b
	return f
}

// put appends fragment f.
func (x *exporter) put(b []byte, f frag) []byte { return append(b, x.frags[f.from:f.to]...) }

// appendCat appends a span's category and closes it.
func appendCat(b []byte, ph phase.Phase) []byte {
	b = append(b, `,"cat":"`...)
	b = appendStringBody(b, ph.String())
	return append(b, `"},`...)
}

// appendEventName opens an instant's name: its kind and frame kind.
func appendEventName(b []byte, kind Kind, frame mcp.FrameKind) []byte {
	b = append(b, `{"name":"`...)
	b = appendStringBody(b, kind.String())
	b = append(b, ' ')
	return appendStringBody(b, frame.String())
}

// appendKindCat appends an instant's category, scope and the opening of
// its args, up to the seq value.
func appendKindCat(b []byte, kind Kind) []byte {
	b = append(b, `,"cat":"`...)
	b = appendStringBody(b, kind.String())
	return append(b, `","s":"t","args":{"seq":`...)
}

// appendMeta opens a metadata event up to and including the opening quote
// of its args.name value.
func appendMeta(b []byte, name string, pid, tid int64) []byte {
	b = append(b, `{"name":"`...)
	b = append(b, name...)
	b = append(b, `","ph":"M","ts":0`...)
	b = appendPidTid(b, pid, tid)
	return append(b, `,"args":{"name":"`...)
}

func appendPidTid(b []byte, pid, tid int64) []byte {
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, pid, 10)
	b = append(b, `,"tid":`...)
	return strconv.AppendInt(b, tid, 10)
}

// appendStringBody appends s as the inside of a JSON string, escaped the
// way encoding/json escapes it (HTML-safe: <, > and & become \u00XX).
// Labels, kinds and reasons are almost always plain ASCII and are copied;
// anything else takes encoding/json's own escaper.
func appendStringBody(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q[1:len(q)-1]...)
		}
	}
	return append(b, s...)
}

// appendMicros appends ns nanoseconds as the microsecond count
// encoding/json writes for float64(ns)/1000: the shortest decimal that
// reads back as that float. Below 1e15 ns the quotient has at most 15
// significant digits, so that decimal is the integer part plus the
// remainder's three digits with trailing zeros trimmed — no float
// formatting. Outside that range the float path runs (always in 'f' form:
// no int64 of nanoseconds reaches the 1e21 µs where encoding/json switches
// to an exponent).
func appendMicros(b []byte, ns int64) []byte {
	if ns < 0 || ns >= 1e15 {
		return strconv.AppendFloat(b, float64(ns)/1000, 'f', -1, 64)
	}
	us := ns / 1000
	b = appendUint(b, uint64(us))
	if frac := ns - us*1000; frac != 0 {
		d := &triples[frac]
		switch {
		case d[2] != '0':
			return append(b, '.', d[0], d[1], d[2])
		case d[1] != '0':
			return append(b, '.', d[0], d[1])
		}
		return append(b, '.', d[0])
	}
	return b
}

// appendUint appends v in decimal, three digits at a time below a million
// (timestamps in microseconds, sizes, sequence numbers).
func appendUint(b []byte, v uint64) []byte {
	switch {
	case v < 1000:
		return appendSmall(b, v)
	case v < 1e6:
		hi := v / 1000
		d := &triples[v-hi*1000]
		return append(appendSmall(b, hi), d[0], d[1], d[2])
	}
	return strconv.AppendUint(b, v, 10)
}

// appendSmall appends v < 1000 in decimal.
func appendSmall(b []byte, v uint64) []byte {
	d := &triples[v]
	switch {
	case v >= 100:
		return append(b, d[0], d[1], d[2])
	case v >= 10:
		return append(b, d[1], d[2])
	}
	return append(b, d[2])
}

// triples holds the three digits of each of 0..999.
var triples = func() (t [1000][3]byte) {
	for n := range t {
		t[n] = [3]byte{byte('0' + n/100), byte('0' + n/10%10), byte('0' + n%10)}
	}
	return t
}()
