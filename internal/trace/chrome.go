package trace

import (
	"encoding/json"
	"io"
	"slices"
	"strconv"
	"sync"

	"gmsim/internal/phase"
)

// wirePID is the Chrome-trace process id of the synthetic "wire" process.
// Node pids are node+1 (pid 0 renders oddly in Perfetto), so any constant
// far above a plausible node count is safe.
const wirePID = 1000000

// wirePidTid is the fragment every wire span and fabric event carries, up
// to its thread id.
var wirePidTid = `,"pid":` + strconv.Itoa(wirePID) + `,"tid":`

// chromeBufs holds export buffers between calls: an export is built whole
// and handed to the writer in one Write, and a service worker exports one
// ~1 MB trace per cold request.
var chromeBufs = sync.Pool{New: func() any { return new([]byte) }}

// pairKey packs a wire thread's (src, dst) so that uint64 order is the
// (src, dst) order of the signed ids.
func pairKey(src, dst int32) uint64 {
	return uint64(uint32(src)^1<<31)<<32 | uint64(uint32(dst)^1<<31)
}

func pairOf(k uint64) (src, dst int32) {
	return int32(uint32(k>>32) ^ 1<<31), int32(uint32(k) ^ 1<<31)
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
// tests hold the two to byte equality.
func (r *Recorder) WriteChrome(w io.Writer) error {
	spans := r.phases.Spans()

	// Discover node pids/tracks and wire pairs first so metadata events
	// lead the file and thread ids are assigned deterministically.
	nodeTracks := make(map[int32]uint8)
	pairTid := make(map[uint64]int)
	for i := range spans {
		s := &spans[i]
		if s.Track == phase.TrackWire {
			pairTid[pairKey(s.Node, s.Peer)] = 0
		} else if bit := uint8(1) << s.Track; nodeTracks[s.Node]&bit == 0 {
			nodeTracks[s.Node] |= bit
		}
	}
	for _, c := range r.events {
		for i := range c {
			pairTid[pairKey(int32(c[i].Src), int32(c[i].Dst))] = 0
		}
	}
	nodes := make([]int32, 0, len(nodeTracks))
	for n := range nodeTracks {
		nodes = append(nodes, n)
	}
	slices.Sort(nodes)
	pairs := make([]uint64, 0, len(pairTid))
	for k := range pairTid {
		pairs = append(pairs, k)
	}
	slices.Sort(pairs)

	bp := chromeBufs.Get().(*[]byte)
	defer chromeBufs.Put(bp)
	b := (*bp)[:0]
	// A span is ~100 bytes, an instant ~130, a metadata line ~90.
	if need := 64 + 144*(len(spans)+r.nEvents) + 96*(5*len(nodes)+len(pairs)+1); cap(b) < need {
		b = make([]byte, 0, need)
	}

	b = append(b, `{"traceEvents":[`...)
	for _, n := range nodes {
		pid := int64(n) + 1
		b = appendMeta(b, "process_name", pid, 0)
		b = append(b, "node "...)
		b = strconv.AppendInt(b, int64(n), 10)
		b = append(b, `"}},`...)
		for t := phase.TrackHost; t <= phase.TrackRDMA; t++ {
			if nodeTracks[n]&(1<<t) != 0 {
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
			pairTid[k] = i + 1
			src, dst := pairOf(k)
			b = appendMeta(b, "thread_name", wirePID, int64(i+1))
			b = strconv.AppendInt(b, int64(src), 10)
			b = append(b, '-', '\\', 'u', '0', '0', '3', 'e') // "->": encoding/json HTML-escapes the '>'
			b = strconv.AppendInt(b, int64(dst), 10)
			b = append(b, `"}},`...)
		}
	}

	for i := range spans {
		s := &spans[i]
		b = append(b, `{"name":"`...)
		b = appendStringBody(b, s.Label)
		b = append(b, `","ph":"X","ts":`...)
		b = appendMicros(b, int64(s.Start))
		if d := s.Dur(); d != 0 {
			b = append(b, `,"dur":`...)
			b = appendMicros(b, int64(d))
		}
		if s.Track == phase.TrackWire {
			b = append(b, wirePidTid...)
			b = strconv.AppendInt(b, int64(pairTid[pairKey(s.Node, s.Peer)]), 10)
		} else {
			b = appendPidTid(b, int64(s.Node)+1, int64(s.Track))
		}
		b = append(b, `,"cat":"`...)
		b = appendStringBody(b, s.Phase.String())
		b = append(b, `"},`...)
	}

	for _, c := range r.events {
		for i := range c {
			e := &c[i]
			kind := e.Kind.String()
			b = append(b, `{"name":"`...)
			b = appendStringBody(b, kind)
			b = append(b, ' ')
			b = appendStringBody(b, e.Frame.String())
			if e.Reason != "" {
				b = append(b, ' ')
				b = appendStringBody(b, e.Reason)
			}
			b = append(b, `","ph":"i","ts":`...)
			b = appendMicros(b, int64(e.At))
			b = append(b, wirePidTid...)
			b = strconv.AppendInt(b, int64(pairTid[pairKey(int32(e.Src), int32(e.Dst))]), 10)
			b = append(b, `,"cat":"`...)
			b = appendStringBody(b, kind)
			b = append(b, `","s":"t","args":{"seq":`...)
			b = strconv.AppendUint(b, uint64(e.Seq), 10)
			b = append(b, `,"size":`...)
			b = strconv.AppendInt(b, int64(e.Size), 10)
			b = append(b, `}},`...)
		}
	}

	if last := len(b) - 1; b[last] == ',' {
		b[last] = ']'
	} else { // no events: encoding/json writes a nil slice as null
		b = append(b[:last], "null"...)
	}
	b = append(b, `,"displayTimeUnit":"ns"}`+"\n"...)
	*bp = b
	_, err := w.Write(b)
	return err
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
	b = strconv.AppendInt(b, ns/1000, 10)
	if frac := ns % 1000; frac != 0 {
		b = append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
		for b[len(b)-1] == '0' {
			b = b[:len(b)-1]
		}
	}
	return b
}
