package phase

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"gmsim/internal/sim"
)

// A nil recorder is the detached fast path: every method must be safe and
// report nothing recorded.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.On() {
		t.Fatal("nil recorder reports on")
	}
	r.Enable(0)
	r.Disable(0)
	r.Reset(0)
	r.Add(Span{Start: 0, End: 10})
	r.AddHost(Span{Start: 0, End: 10}, 1, 0)
	r.Crashed(0, 0)
	if r.Len() != 0 || r.Spans() != nil {
		t.Fatal("nil recorder recorded something")
	}
	if r.Totals() != [NumPhases]sim.Time{} {
		t.Fatal("nil recorder has totals")
	}
}

func TestEnableDisableGate(t *testing.T) {
	r := NewRecorder()
	if !r.On() {
		t.Fatal("new recorder starts disabled")
	}
	r.Add(Span{Start: 0, End: 5, Phase: NICProc})
	r.Disable(5)
	if r.On() {
		t.Fatal("disabled recorder reports on")
	}
	r.Add(Span{Start: 5, End: 9, Phase: NICProc})
	r.Enable(9)
	r.Add(Span{Start: 9, End: 12, Phase: DMA})
	if r.Len() != 2 {
		t.Fatalf("len = %d, want 2 (disabled span dropped)", r.Len())
	}
}

func TestAddDropsZeroLength(t *testing.T) {
	r := NewRecorder()
	r.Add(Span{Start: 7, End: 7, Phase: Wire})
	r.Add(Span{Start: 7, End: 3, Phase: Wire})
	if r.Len() != 0 {
		t.Fatalf("zero/negative-length spans recorded: %d", r.Len())
	}
}

func TestTotalsSumPerPhase(t *testing.T) {
	r := NewRecorder()
	r.Add(Span{Start: 0, End: 10, Phase: HostSend})
	r.Add(Span{Start: 20, End: 25, Phase: HostSend})
	r.Add(Span{Start: 5, End: 9, Phase: Wire})
	tot := r.Totals()
	if tot[HostSend] != 15 || tot[Wire] != 4 || tot[NICProc] != 0 {
		t.Fatalf("totals = %v", tot)
	}
}

func TestResetClears(t *testing.T) {
	r := NewRecorder()
	r.Add(Span{Start: 0, End: 1, Phase: DMA})
	r.Reset(1)
	if r.Len() != 0 {
		t.Fatal("Reset left spans")
	}
	if !r.On() {
		t.Fatal("Reset disabled the recorder")
	}
}

// Host spans are windowed by the time they start, not by whether the
// recorder was on when the call that produced them ran: a process that led
// the loop across the opening or the closing instant records them early.
func TestHostSpansWindowedByStart(t *testing.T) {
	r := NewRecorder()
	r.Disable(0)
	host := func(node int32, start, end sim.Time) {
		r.AddHost(Span{Start: start, End: end, Phase: HostPost, Node: node, Peer: -1, Label: r.Label("h")}, 1, 0)
	}
	host(0, 10, 20)  // before the window: dropped when it opens
	host(1, 95, 101) // starts before the window
	host(1, 101, 102)
	host(2, 100, 110) // recorded before Enable, starts at its instant
	r.Enable(100)
	r.Add(Span{Start: 100, End: 130, Phase: NICProc, Node: 0, Peer: -1, Label: r.Label("fw")})
	host(0, 150, 160)
	host(0, 200, 210) // recorded while on, starts at the closing instant
	r.Disable(200)
	host(2, 199, 201)
	r.Add(Span{Start: 200, End: 230, Phase: NICProc, Node: 0, Peer: -1, Label: r.Label("fw")})
	var got []string
	for _, s := range r.Spans() {
		got = append(got, fmt.Sprintf("%d:%d-%d", s.Node, s.Start, s.End))
	}
	// The loop's span first, then the host spans by node, in start order.
	want := []string{"0:100-130", "0:150-160", "1:101-102", "2:100-110", "2:199-201"}
	if !slices.Equal(got, want) {
		t.Fatalf("spans %v, want %v", got, want)
	}
	checkCounts(t, r, len(want))
	if tot := r.Totals(); tot[HostPost] != 10+1+10+2 || tot[NICProc] != 30 {
		t.Fatalf("totals = %v", tot)
	}

	// A window opened later takes the span that started at the first one's
	// closing instant; a reset keeps only what starts at or after it.
	r.Enable(200)
	checkCounts(t, r, len(want)+1)
	host(3, 250, 260)
	r.Reset(240)
	if got := r.Spans(); len(got) != 1 || got[0].Node != 3 {
		t.Fatalf("after a reset at 240: %v", got)
	}
	checkCounts(t, r, 1)
}

// A reset while off keeps, pending, the host spans a process recorded ahead
// of the reset's instant: a window opened later takes them just as it takes
// the spans recorded after the reset.
func TestResetWhileOffKeepsSpansAhead(t *testing.T) {
	r := NewRecorder()
	r.Disable(10)
	r.AddHost(Span{Start: 5, End: 15, Phase: HostPost, Node: 0, Peer: -1, Label: r.Label("behind")}, 1, 10)
	r.AddHost(Span{Start: 30, End: 40, Phase: HostPost, Node: 1, Peer: -1, Label: r.Label("ahead")}, 3, 10) // 30, 40, 50
	r.Reset(20)
	r.AddHost(Span{Start: 45, End: 50, Phase: HostDone, Node: 0, Peer: -1, Label: r.Label("after")}, 1, 20)
	r.Enable(40)
	var got []string
	for _, s := range r.Spans() {
		got = append(got, fmt.Sprintf("%d:%s@%d", s.Node, r.Name(s.Label), s.Start))
	}
	want := []string{"0:after@45", "1:ahead@40", "1:ahead@50"}
	if !slices.Equal(got, want) {
		t.Fatalf("spans %v, want %v", got, want)
	}
	checkCounts(t, r, len(want))
}

// checkCounts holds Len and Totals, which count without building the
// canonical copy, to what Spans holds.
func checkCounts(t *testing.T, r *Recorder, want int) {
	t.Helper()
	var tot [NumPhases]sim.Time
	for _, s := range r.Spans() {
		tot[s.Phase] += s.Dur()
	}
	if r.Len() != want || len(r.Spans()) != want {
		t.Fatalf("len = %d, %d spans; want %d", r.Len(), len(r.Spans()), want)
	}
	if r.Totals() != tot {
		t.Fatalf("totals = %v, spans sum to %v", r.Totals(), tot)
	}
}

// Several processes on one node interleave their spans; the canonical order
// is still by start time.
func TestHostSpansOfOneNodeSorted(t *testing.T) {
	r := NewRecorder()
	for _, s := range []sim.Time{30, 10, 40, 20} {
		r.AddHost(Span{Start: s, End: s + 5, Node: 7, Peer: -1}, 1, 0)
	}
	r.AddHost(Span{Start: 50, End: 55, Node: 3, Peer: -1}, 1, 0)
	var got []sim.Time
	for _, s := range r.Spans() {
		got = append(got, s.Start)
	}
	if want := []sim.Time{50, 10, 20, 30, 40}; !slices.Equal(got, want) {
		t.Fatalf("starts %v, want %v", got, want)
	}
}

// A run of n calls is n spans, each windowed by its own start; a crash
// takes back what its node recorded for the instant it died and later.
func TestHostRunsAndCrashes(t *testing.T) {
	r := NewRecorder()
	r.Disable(0)
	r.AddHost(Span{Start: 0, End: 10, Phase: HostRecv, Node: 1, Peer: -1, Label: r.Label("run")}, 8, 0) // 0, 10, …, 70
	r.AddHost(Span{Start: 0, End: 10, Phase: HostRecv, Node: 2, Peer: -1, Label: r.Label("run")}, 8, 0)
	r.Enable(25)
	r.AddHost(Span{Start: 80, End: 90, Phase: HostPost, Node: 1, Peer: -1, Label: r.Label("late")}, 1, 30)
	r.Disable(60)
	r.Crashed(2, 45)
	var got []string
	for _, s := range r.Spans() {
		got = append(got, fmt.Sprintf("%d:%d", s.Node, s.Start))
	}
	want := []string{"1:30", "1:40", "1:50", "2:30", "2:40"}
	if !slices.Equal(got, want) {
		t.Fatalf("spans %v, want %v", got, want)
	}
	checkCounts(t, r, len(want))
	r.Enable(75)
	checkCounts(t, r, len(want)+1) // "late" at 80
}

// While the recorder is off, host spans the loop has passed are dropped as
// the recording grows: a long warm-up keeps only what a later window could
// still take, the spans processes recorded ahead of the loop.
func TestHostSpansPrunedWhileOff(t *testing.T) {
	r := NewRecorder()
	r.Disable(0)
	const calls = 100 * spanChunk
	for i := sim.Time(0); i < calls; i++ {
		// Two processes, one leading the loop by three calls.
		r.AddHost(Span{Start: 10 * i, End: 10*i + 10, Node: 0, Peer: -1}, 1, 10*i)
		r.AddHost(Span{Start: 10 * (i + 3), End: 10*(i+3) + 10, Node: 1, Peer: -1}, 1, 10*i)
	}
	if r.runs > 3*spanChunk {
		t.Fatalf("%d host runs stored for %d calls while off", r.runs, 2*calls)
	}
	r.Enable(10 * calls)
	checkCounts(t, r, 3) // node 1's calls calls, calls+1, calls+2
}

func TestStrings(t *testing.T) {
	for ph := Phase(0); ph <= NumPhases; ph++ {
		if strings.HasPrefix(ph.String(), "phase(") {
			t.Fatalf("phase %d has no name", ph)
		}
	}
	if NumPhases.String() != "Idle" {
		t.Fatalf("NumPhases renders %q, want Idle", NumPhases.String())
	}
	if Phase(99).String() != "phase(99)" {
		t.Fatal("unknown phase string")
	}
	for tr := TrackHost; tr <= TrackWire; tr++ {
		if strings.HasPrefix(tr.String(), "track(") {
			t.Fatalf("track %d has no name", tr)
		}
	}
	if Track(99).String() != "track(99)" {
		t.Fatal("unknown track string")
	}
	s := Span{Start: 1000, End: 3000, Phase: Wire, Track: TrackWire, Node: 1, Peer: 2}
	if s.Dur() != 2000 {
		t.Fatalf("dur = %v", s.Dur())
	}
}

// Labels are ids into the recorder's own table: the empty name is label 0,
// and a name keeps its label for the recorder's lifetime, resets included.
func TestLabels(t *testing.T) {
	var nilRec *Recorder
	if nilRec.Label("x") != 0 || nilRec.Name(0) != "" || nilRec.Names() != nil {
		t.Fatal("nil recorder has labels")
	}
	r := NewRecorder()
	if r.Label("") != 0 || r.Name(0) != "" {
		t.Fatalf("empty name is label %d", r.Label(""))
	}
	var names []string
	for i := range 200 {
		names = append(names, fmt.Sprintf("task.%d", i*7919))
	}
	for round := range 3 {
		for i, n := range names {
			if l := r.Label(n); l != Label(i+1) || r.Name(l) != n || r.Names()[l] != n {
				t.Fatalf("round %d: %q is label %d (%q), want %d", round, n, l, r.Name(l), i+1)
			}
		}
		r.Reset(0)
	}
	if r.Name(Label(len(names)+1)) != "" {
		t.Fatal("a label outside the table has a name")
	}
}

// heldRig drives a recorder from a simulator's events, as the firmware and
// its DMA engines do.
type heldRig struct {
	s *sim.Simulator
	r *Recorder
}

func newHeldRig() *heldRig { return &heldRig{sim.New(), NewRecorder()} }

// add returns an event that adds a one-nanosecond span labelled name.
func (h *heldRig) add(name string) func() {
	return func() {
		now := h.s.Now()
		h.r.Add(Span{Start: now, End: now + 1, Node: 0, Label: h.r.Label(name)})
	}
}

// hold holds a span labelled name for node, due at due, as a firmware task
// booking a transfer does: the event that would have recorded it keeps its
// reserved key, and the transfer's completion is scheduled after it.
func (h *heldRig) hold(node int32, name string, due sim.Time) {
	h.r.Hold(Span{Start: due, End: due + 5, Node: node, Label: h.r.Label(name)}, h.s.Reserve(due), h.s)
	h.s.At(due+5, func() {})
}

// labels lists the loop spans' names in recording order.
func (h *heldRig) labels() []string {
	var out []string
	for _, c := range h.r.Loop() {
		for _, s := range c {
			out = append(out, h.r.Name(s.Label))
		}
	}
	return out
}

// A held span lands where the event due at its instant, scheduled when it
// was held, would have added it: after the events of that instant scheduled
// before, before those scheduled after, and in instant order among held
// spans whatever order they were held in.
func TestHeldSpansLandInEventOrder(t *testing.T) {
	h := newHeldRig()
	h.s.At(10, h.add("before"))
	h.s.At(0, func() {
		h.add("charge")()
		h.hold(0, "held10", 10)
		h.s.At(10, h.add("after"))
		h.hold(1, "held8", 8) // held later, due earlier
		h.add("same event")() // the held spans are not due yet
	})
	h.s.At(9, h.add("at9"))
	h.s.Run()
	want := []string{"charge", "same event", "held8", "at9", "before", "held10", "after"}
	if got := h.labels(); !slices.Equal(got, want) {
		t.Fatalf("recording order %v, want %v", got, want)
	}
	if h.r.Len() != len(want) || h.r.Totals()[0] != 10+5 {
		t.Errorf("len %d, totals %v", h.r.Len(), h.r.Totals())
	}
}

// Enable, Disable and Reset at a held span's instant take it as they would
// have taken the span its event added: by whether they run before or after
// that event.
func TestHeldSpanAtWindowEdges(t *testing.T) {
	for _, tc := range []struct {
		name   string
		gate   func(r *Recorder, at sim.Time)
		start  bool // recorder on before the gate
		before []string
		after  []string
	}{
		{"disable", (*Recorder).Disable, true, nil, []string{"held"}},
		{"enable", (*Recorder).Enable, false, []string{"held"}, nil},
		{"reset", (*Recorder).Reset, true, []string{"held"}, nil},
	} {
		for _, gateFirst := range []bool{true, false} {
			h := newHeldRig()
			if !tc.start {
				h.r.Disable(0)
			}
			gate := func() { tc.gate(h.r, h.s.Now()) }
			if gateFirst {
				h.s.At(10, gate) // scheduled before the hold: runs before its event
			}
			h.s.At(0, func() {
				h.hold(0, "held", 10)
				if !gateFirst {
					h.s.At(10, gate)
				}
			})
			h.s.Run()
			want := tc.after
			if gateFirst {
				want = tc.before
			}
			if got := h.labels(); !slices.Equal(got, want) {
				t.Errorf("%s before the span's event %v: recorded %v, want %v", tc.name, gateFirst, got, want)
			}
		}
	}
}

// A card that dies drops its held spans due at or after the crash, and no
// other node's; Crashed releases what is due first, as every gate does.
func TestHeldSpansDroppedByCrash(t *testing.T) {
	h := newHeldRig()
	h.s.At(10, func() {
		h.r.DropHeld(0, h.s.Now())
		h.r.Crashed(0, h.s.Now())
	})
	h.s.At(0, func() {
		h.hold(0, "node0 at 5", 5)
		h.hold(0, "node0 at 10", 10)
		h.hold(0, "node0 at 20", 20)
		h.hold(1, "node1 at 10", 10)
		h.hold(1, "node1 at 20", 20)
	})
	h.s.Run()
	want := []string{"node0 at 5", "node1 at 10", "node1 at 20"}
	if got := h.labels(); !slices.Equal(got, want) {
		t.Fatalf("recorded %v, want %v", got, want)
	}
	var nilRec *Recorder
	nilRec.Hold(Span{Start: 0, End: 1}, sim.Key{}, h.s)
	nilRec.DropHeld(0, 0)
}
