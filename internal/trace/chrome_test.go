package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"gmsim/internal/cluster"
	"gmsim/internal/mcp"
	"gmsim/internal/network"
	"gmsim/internal/phase"
	"gmsim/internal/sim"
)

// chromeCheck is the schema the export must satisfy: the subset of the
// Chrome trace-event format Perfetto requires.
type chromeCheck struct {
	TraceEvents []struct {
		Name  string          `json:"name"`
		Ph    string          `json:"ph"`
		Ts    *float64        `json:"ts"`
		Dur   float64         `json:"dur"`
		Pid   *int            `json:"pid"`
		Tid   *int            `json:"tid"`
		Cat   string          `json:"cat"`
		Scope string          `json:"s"`
		Args  json.RawMessage `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestWriteChromeSchema(t *testing.T) {
	rec, _ := runFullStackBarrier(t, 4, mcp.GB, 2)
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var got chromeCheck
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if got.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", got.DisplayTimeUnit)
	}
	if len(got.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	var spans, instants, meta int
	cats := map[string]bool{}
	procs := map[int]bool{}
	for i, e := range got.TraceEvents {
		if e.Name == "" {
			t.Fatalf("event %d has no name", i)
		}
		if e.Pid == nil || e.Tid == nil {
			t.Fatalf("event %d missing pid/tid", i)
		}
		switch e.Ph {
		case "X":
			spans++
			if e.Ts == nil || *e.Ts < 0 || e.Dur <= 0 {
				t.Fatalf("span %d has bad ts/dur: %+v", i, e)
			}
			cats[e.Cat] = true
			procs[*e.Pid] = true
		case "i":
			instants++
			if e.Ts == nil || e.Scope != "t" {
				t.Fatalf("instant %d malformed: %+v", i, e)
			}
		case "M":
			meta++
			if e.Name != "process_name" && e.Name != "thread_name" {
				t.Fatalf("metadata %d named %q", i, e.Name)
			}
			if len(e.Args) == 0 {
				t.Fatalf("metadata %d has no args", i)
			}
		default:
			t.Fatalf("event %d has unknown phase %q", i, e.Ph)
		}
	}
	if spans == 0 || instants == 0 || meta == 0 {
		t.Fatalf("export incomplete: %d spans, %d instants, %d metadata", spans, instants, meta)
	}
	// Every layer shows up: host, firmware, DMA and wire categories, the
	// wire pseudo-process, and one process per node.
	for _, want := range []string{"HostPost", "HostDone", "NICProc", "DMA", "Wire"} {
		if !cats[want] {
			t.Fatalf("no %s spans in export (cats %v)", want, cats)
		}
	}
	if !procs[wirePID] {
		t.Fatal("no wire process in export")
	}
	for node := 0; node < 4; node++ {
		if !procs[node+1] {
			t.Fatalf("node %d missing from export", node)
		}
	}
}

// A fabric-only recorder still exports: instants and metadata, no spans.
func TestWriteChromeFabricOnly(t *testing.T) {
	rec, _ := runTracedBarrier(t, 2)
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var got chromeCheck
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	for _, e := range got.TraceEvents {
		if e.Ph == "X" {
			t.Fatal("fabric-only export contains spans")
		}
	}
	if len(got.TraceEvents) == 0 {
		t.Fatal("no events exported")
	}
}

// TestChromeGoldenGB4 pins every byte of one small export: a 4-node NIC
// gather-and-broadcast (dim 2) barrier. The exporter's output is stored and
// served content-addressed, so its bytes are behaviour. Regenerate
// deliberately with:
//
//	go test ./internal/trace -run TestChromeGoldenGB4 -update
func TestChromeGoldenGB4(t *testing.T) {
	rec, _ := runFullStackBarrier(t, 4, mcp.GB, 2)
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	path := filepath.Join("testdata", "chrome_gb4_dim2.json")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, buf.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Chrome export drifted from golden %s:\n%s", path, diffLines(chromeLines(buf.Bytes()), chromeLines(want)))
	}
}

// chromeLines breaks an export (one long line) at event boundaries so
// diffLines can point at the event that moved.
func chromeLines(b []byte) string {
	return strings.ReplaceAll(string(b), "},{", "},\n{")
}

// chromeEvent is one entry of the Chrome trace-event format (the JSON
// Perfetto and chrome://tracing ingest). Ts and Dur are microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Cat   string         `json:"cat,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeFile is the top-level JSON object.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromeOracle is the exporter WriteChrome replaced, verbatim: build every
// event as a struct and hand the lot to encoding/json. It defines the bytes
// — field order, omitted fields, HTML escaping, shortest-float timestamps —
// that the append-based encoder must reproduce.
func chromeOracle(r *Recorder, w io.Writer) error {
	var evs []chromeEvent

	// Discover node pids/tracks and wire pairs first so metadata events
	// lead the file and thread ids are assigned deterministically.
	nodeTracks := make(map[int32]map[phase.Track]bool)
	type pair struct{ src, dst int32 }
	pairSet := make(map[pair]bool)
	for _, s := range r.phases.Spans() {
		if s.Track == phase.TrackWire {
			pairSet[pair{s.Node, s.Peer}] = true
			continue
		}
		if nodeTracks[s.Node] == nil {
			nodeTracks[s.Node] = make(map[phase.Track]bool)
		}
		nodeTracks[s.Node][s.Track] = true
	}
	for _, e := range r.Events() {
		pairSet[pair{int32(e.Src), int32(e.Dst)}] = true
	}

	var nodes []int32
	for n := range nodeTracks {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, n := range nodes {
		pid := int(n) + 1
		evs = append(evs, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": fmt.Sprintf("node %d", n)},
		})
		for t := phase.TrackHost; t <= phase.TrackRDMA; t++ {
			if nodeTracks[n][t] {
				evs = append(evs, chromeEvent{
					Name: "thread_name", Ph: "M", Pid: pid, Tid: int(t),
					Args: map[string]any{"name": t.String()},
				})
			}
		}
	}

	var pairs []pair
	for p := range pairSet {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].src != pairs[j].src {
			return pairs[i].src < pairs[j].src
		}
		return pairs[i].dst < pairs[j].dst
	})
	pairTid := make(map[pair]int, len(pairs))
	if len(pairs) > 0 {
		evs = append(evs, chromeEvent{
			Name: "process_name", Ph: "M", Pid: wirePID,
			Args: map[string]any{"name": "wire"},
		})
		for i, p := range pairs {
			tid := i + 1
			pairTid[p] = tid
			evs = append(evs, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: wirePID, Tid: tid,
				Args: map[string]any{"name": fmt.Sprintf("%d->%d", p.src, p.dst)},
			})
		}
	}

	for _, s := range r.phases.Spans() {
		ev := chromeEvent{
			Name: r.phases.Name(s.Label), Ph: "X", Cat: s.Phase.String(),
			Ts: s.Start.Micros(), Dur: s.Dur().Micros(),
		}
		if s.Track == phase.TrackWire {
			ev.Pid = wirePID
			ev.Tid = pairTid[pair{s.Node, s.Peer}]
		} else {
			ev.Pid = int(s.Node) + 1
			ev.Tid = int(s.Track)
		}
		evs = append(evs, ev)
	}

	for _, e := range r.Events() {
		name := fmt.Sprintf("%s %v", e.Kind, e.Frame)
		if e.Reason != "" {
			name += " " + e.Reason
		}
		evs = append(evs, chromeEvent{
			Name: name, Ph: "i", Cat: e.Kind.String(),
			Ts: e.At.Micros(), Scope: "t",
			Pid: wirePID, Tid: pairTid[pair{int32(e.Src), int32(e.Dst)}],
			Args: map[string]any{"seq": e.Seq, "size": e.Size},
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeFile{TraceEvents: evs, DisplayTimeUnit: "ns"})
}

// addEvent records e the way the recorder stores events. Not for hops,
// which keep a switch and a port instead of a reason.
func (r *Recorder) addEvent(e Event) {
	r.add(entry{
		at: e.At, kind: uint8(e.Kind), src: int32(e.Src), dst: int32(e.Dst),
		frame: int16(e.Frame), seq: e.Seq, size: int32(e.Size), detail: r.reason(e.Reason, ""),
	})
}

func exportBytes(t testing.TB, export func(io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := export(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	return buf.Bytes()
}

// TestChromeMatchesOracleHandBuilt holds WriteChrome to the reflection
// encoder on recordings no simulation produces: an empty one (a nil event
// slice is "null"), labels and reasons that need escaping, tracks and kinds
// outside the named ranges, negative ids, zero-length spans' absent "dur",
// and timestamps on both sides of the integer path's 1e15 ns limit.
func TestChromeMatchesOracleHandBuilt(t *testing.T) {
	build := func(fill func(r *Recorder)) *Recorder {
		r := Attach(cluster.New(cluster.DefaultConfig(2)))
		fill(r)
		return r
	}
	for name, r := range map[string]*Recorder{
		"empty": build(func(*Recorder) {}),
		"spans only": build(func(r *Recorder) {
			r.phases.Add(phase.Span{Start: 1, End: 1001, Phase: phase.NICProc, Track: phase.TrackFW, Node: 3, Peer: -1, Label: r.phases.Label("bar.token")})
		}),
		"escapes": build(func(r *Recorder) {
			r.phases.Add(phase.Span{Start: 0, End: 7, Phase: phase.HostPost, Track: phase.TrackHost, Node: 0, Peer: -1, Label: r.phases.Label(`a<b>&"c\` + "\x01\t \xff")})
			r.phases.Add(phase.Span{Start: 5, End: 1500, Phase: phase.Wire, Track: phase.TrackWire, Node: 1, Peer: 0, Label: r.phases.Label("")})
			r.addEvent(Event{At: 12345, Kind: Drop, Src: 1, Dst: 0, Frame: mcp.DataFrame, Seq: 1<<32 - 1, Size: 4096, Reason: "crc <bad> & \"torn\"\n"})
			r.addEvent(Event{At: 12346, Kind: Fault, Reason: "link-down é"})
		}),
		"out of range": build(func(r *Recorder) {
			r.phases.Add(phase.Span{Start: 999_999_999_999_999, End: 1_000_000_000_000_001, Phase: phase.Phase(42), Track: phase.Track(9), Node: -2, Peer: -1, Label: r.phases.Label("late")})
			r.phases.Add(phase.Span{Start: 1 << 53, End: 1<<62 + 12345, Phase: phase.DMA, Track: phase.TrackWire, Node: -1, Peer: -3, Label: r.phases.Label("wide")})
			r.addEvent(Event{At: 1<<63 - 1, Kind: Kind(17), Src: -5, Dst: 1 << 20, Frame: mcp.FrameKind(250), Size: -1})
		}),
	} {
		got := exportBytes(t, r.WriteChrome)
		want := exportBytes(t, func(w io.Writer) error { return chromeOracle(r, w) })
		if !bytes.Equal(got, want) {
			t.Errorf("%s: WriteChrome differs from the reflection encoder:\n%s", name, diffLines(chromeLines(got), chromeLines(want)))
		}
	}
}

// FuzzChromeString holds the string appender to encoding/json on arbitrary
// bytes — quotes, backslashes, the HTML set, control bytes, invalid UTF-8,
// U+2028 — alone and spliced into an event name the way WriteChrome
// assembles one.
func FuzzChromeString(f *testing.F) {
	for _, s := range []string{"", "bar.token", "sw0:p3", `<>&"\`, "a\x00b\x1f\x7f", "\b\f\n\r\t", "\xff\xc0\xaf", "café    \U0001f600", "link-down 15->sw0"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got := append(appendStringBody([]byte{'"'}, s), '"')
		if !bytes.Equal(got, want) {
			t.Fatalf("%q: appended %s, encoding/json writes %s", s, got, want)
		}
		want, _ = json.Marshal("drop data " + s)
		got = append(appendStringBody(append(appendStringBody([]byte{'"'}, "drop data"), ' '), s), '"')
		if !bytes.Equal(got, want) {
			t.Fatalf("name with reason %q: appended %s, encoding/json writes %s", s, got, want)
		}
	})
}

// FuzzChromeMicros holds the timestamp appender to encoding/json's float
// formatting of Time.Micros for any nanosecond count.
func FuzzChromeMicros(f *testing.F) {
	for _, ns := range []int64{0, 1, 10, 100, 999, 1000, 1001, 1500, 101_133, 123_456_789, 999_999_999_999_999, 1e15, 1e15 + 1, 1 << 53, 1<<53 + 1, 1<<63 - 1, -1, -1500, -1 << 63} {
		f.Add(ns)
	}
	f.Fuzz(func(t *testing.T, ns int64) {
		want, err := json.Marshal(sim.Time(ns).Micros())
		if err != nil {
			t.Fatal(err)
		}
		if got := appendMicros(nil, ns); !bytes.Equal(got, want) {
			t.Fatalf("%d ns: appended %s, encoding/json writes %s", ns, got, want)
		}
	})
}

// FuzzChromeRecording holds WriteChrome to the reflection encoder on
// recordings made through the recorders' own entry points from arbitrary
// input: span labels, drop and fault reasons (both needing escapes or not),
// node ids of either sign, instants and durations, frame kinds, sequence
// numbers, sizes and hop ports, with a recording window closed and reopened
// between two packets. It guards what the exporter renders once and reuses —
// label, reason, node and wire-thread fragments — beyond the fixed matrix
// of TestChromeMatchesOracle.
func FuzzChromeRecording(f *testing.F) {
	f.Add("bar.token", "loss", int32(1), int32(0), int64(1500), int64(1000), uint32(7), int32(80), int32(3), uint8(3))
	f.Add(`a<b>&"c\`+"\x01", "crc <bad> \u2028", int32(-2), int32(1<<20), int64(999_999_999_999_999), int64(2), uint32(1<<32-1), int32(-1), int32(-4), uint8(250))
	f.Add("", "", int32(0), int32(0), int64(0), int64(1), uint32(0), int32(0), int32(0), uint8(0))
	f.Fuzz(func(t *testing.T, label, reason string, src, dst int32, atNs, durNs int64, seq uint32, size, port int32, frame uint8) {
		at, dur := sim.Time(min(max(atNs, 0), 1<<61)), sim.Time(min(max(durNs, 1), 1<<61))
		cl := cluster.New(cluster.DefaultConfig(2))
		r := Attach(cl)
		ph, s := r.Phases(), cl.Sim()
		host := int32(uint16(src) % 512) // a host span's node is a cluster's rank
		ph.Add(phase.Span{Start: at, End: at + dur, Phase: phase.Phase(seq % 9), Track: phase.Track(frame % 6), Node: src, Peer: dst, Label: ph.Label(label)})
		ph.AddHost(phase.Span{Start: at, End: at + dur, Phase: phase.HostDone, Track: phase.TrackHost, Node: host, Peer: -1, Label: ph.Label(reason)}, 3, 0)
		ph.AddHost(phase.Span{Start: at / 2, End: at/2 + dur, Phase: phase.HostPost, Track: phase.TrackHost, Node: host, Peer: -1, Label: ph.Label(label)}, 1, 0)
		packet := func(src, dst int32) *network.Packet {
			return &network.Packet{Src: network.NodeID(src), Dst: network.NodeID(dst), Size: int(size),
				Payload: &mcp.Frame{Kind: mcp.FrameKind(frame), Seq: seq}}
		}
		p, q := packet(src, dst), packet(dst, src)
		s.At(at, func() {
			r.PacketInjected(p)
			r.PacketForwarded(p, int(port), int(size))
			r.FaultInjected(reason, p, label)
			r.FaultInjected(label, nil, reason)
			r.Disable()
			r.PacketInjected(q)
		})
		s.At(at+dur, func() {
			r.Enable()
			r.PacketDelivered(p)
			r.PacketDropped(q, reason)
		})
		s.Run()
		got := exportBytes(t, r.WriteChrome)
		want := exportBytes(t, func(w io.Writer) error { return chromeOracle(r, w) })
		if !bytes.Equal(got, want) {
			t.Fatalf("WriteChrome differs from the reflection encoder:\n%s", diffLines(chromeLines(got), chromeLines(want)))
		}
	})
}

// TestRecordingsPointerFree walks the element type of every chunked
// recording — fabric events, loop spans, host runs — and fails on any
// field the garbage collector would have to scan: a recording is a run of
// fixed-size records, however long it grows.
func TestRecordingsPointerFree(t *testing.T) {
	var walk func(path string, tp reflect.Type)
	walk = func(path string, tp reflect.Type) {
		switch tp.Kind() {
		case reflect.Struct:
			for i := range tp.NumField() {
				walk(path+"."+tp.Field(i).Name, tp.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", tp.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		default:
			t.Errorf("%s is a %v: the collector scans it", path, tp)
		}
	}
	chunked := 0
	for _, rec := range []reflect.Type{reflect.TypeFor[Recorder](), reflect.TypeFor[phase.Recorder]()} {
		for i := range rec.NumField() {
			f := rec.Field(i)
			if f.Type.Kind() == reflect.Slice && f.Type.Elem().Kind() == reflect.Slice {
				chunked++
				walk(rec.String()+"."+f.Name, f.Type.Elem().Elem())
			}
		}
	}
	if chunked != 3 {
		t.Errorf("found %d chunked recordings, want 3 (events, loop spans, host runs)", chunked)
	}
}

// failingWriter fails every Write.
type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }

// A writer that fails gets its error back: gmtrace exports to a file, and
// service.Execute wraps what WriteChrome returns.
func TestWriteChromeReturnsWriterError(t *testing.T) {
	rec, _ := runFullStackBarrier(t, 4, mcp.PE, 0)
	boom := errors.New("disk full")
	if err := rec.WriteChrome(failingWriter{boom}); !errors.Is(err, boom) {
		t.Fatalf("WriteChrome into a failing writer returned %v, want %v", err, boom)
	}
}

// TestChromeExportAllocs: an export keeps its tables and fragments between
// calls and allocates only to walk the host runs in node order, never per
// span, per event, per node or per wire thread: a 16-node recording with
// eight times the records of a 4-node one allocates as often (twice each;
// 5 and 16 times while the tables were maps built per export). The test
// holds its own exporter: WriteChrome takes one from a pool, which the race
// detector empties at random.
func TestChromeExportAllocs(t *testing.T) {
	small, _ := runFullStackBarrier(t, 4, mcp.PE, 0)
	large, _ := runFullStackBarrier(t, 16, mcp.PE, 0)
	x := new(exporter)
	allocs := func(r *Recorder) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := x.write(r, io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	a4, a16 := allocs(small), allocs(large)
	n4, n16 := small.nEvents+small.Phases().Len(), large.nEvents+large.Phases().Len()
	t.Logf("allocations per export: %.0f for %d records, %.0f for %d", a4, n4, a16, n16)
	if n16 < 8*n4 {
		t.Fatalf("recordings too alike to compare: %d and %d records", n4, n16)
	}
	if a16 > a4+2 || a16 > 6 {
		t.Errorf("export allocations grow with the recording: %.0f for %d records, %.0f for %d", a4, n4, a16, n16)
	}
}
