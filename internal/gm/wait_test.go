package gm_test

import (
	"fmt"
	"slices"
	"testing"

	"gmsim/internal/cluster"
	"gmsim/internal/gm"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/phase"
	"gmsim/internal/sim"
)

// Twin differential tests for the blocking receive's wait: the same scripted
// traffic to one port, received once through a waiter that ends only on the
// event it waits for (the others are retired by the event loop while the
// owner stays parked) and once through anyEvent, which wakes the owner for
// every event and files the others itself. Nothing the owner or a recorder
// can see may tell the two apart, event by event.

// portState is what can be seen of rank 0's port right after it has
// received one event: where the loop and the owner's clock are, the event,
// the host-side mirrors, the events still queued and the spans recorded.
type portState struct {
	at, clock sim.Time
	kind      mcp.HostEventKind
	src       mcp.Endpoint
	data      string
	how       string // "filed", "ended" (the wait's event) or "polled"
	mirrors   gm.Mirrors
	pending   int
	spans     []namedSpan
}

// String is the state without its spans, for failure messages.
func (st portState) String() string {
	return fmt.Sprintf("%s %v from %v %q at %d ns: clock %d ns, %+v, %d queued, %d spans",
		st.how, st.kind, st.src, st.data, st.at, st.clock, st.mirrors, st.pending, len(st.spans))
}

// namedSpan is a recorded span with its label's name: twin recorders may
// number the same labels differently.
type namedSpan struct {
	phase.Span
	name string
}

// named returns rec's spans with their names.
func named(rec *phase.Recorder) []namedSpan {
	var out []namedSpan
	for _, s := range rec.Spans() {
		out = append(out, namedSpan{s, rec.Name(s.Label)})
	}
	return out
}

// diff describes the first difference between two runs' states, "" if none.
func diff(a, b []portState) string {
	for i := range max(len(a), len(b)) {
		switch {
		case i >= len(a) || i >= len(b):
			return fmt.Sprintf("%d and %d events", len(a), len(b))
		case a[i].String() != b[i].String():
			return fmt.Sprintf("event %d:\n filtered %v\n woken    %v", i, a[i], b[i])
		case !slices.Equal(a[i].spans, b[i].spans):
			return fmt.Sprintf("event %d: %v, the recorded spans differ", i, a[i])
		}
	}
	return ""
}

// waitRun is one twin's account of a run.
type waitRun struct {
	states   []portState
	end      sim.Time // rank 0's clock when it finished
	pending  int      // events left in rank 0's queue when the run was over
	spans    []namedSpan
	switches int64
}

// filter is a Waiter that ends on a data message from one endpoint and hands
// every other event to file.
type filter struct {
	from mcp.Endpoint
	file func(ev mcp.HostEvent)
}

func (f *filter) Ends(k mcp.HostEventKind, src mcp.Endpoint) bool {
	return k == mcp.RecvEvent && src == f.from
}

func (f *filter) File(ev mcp.HostEvent) { f.file(ev) }

// waitScript is the traffic: rank 0 sends two messages to rank 1 and posts a
// barrier on an empty schedule (it completes at once), then waits for rank
// 2's first message, then polls until it has had all six events. Rank 1
// sends rank 0 one message d1 after its port is open, rank 2 two messages,
// d2 and d2 + 4 µs after. killAt ≥ 0 kills rank 0 at that instant.
type waitScript struct {
	d1, d2, killAt sim.Time
}

const waitEvents = 6 // two send completions, a barrier completion, three messages

// run plays the script with rank 0 waiting through a filter (filtered) or
// through anyEvent.
func (sc waitScript) run(t *testing.T, filtered bool) waitRun {
	t.Helper()
	cl := cluster.New(cluster.DefaultConfig(3))
	defer cl.Close()
	rec := phase.NewRecorder()
	cl.SetPhaseRecorder(rec)
	s := cl.Sim()
	var out waitRun
	var port *gm.Port
	rank2 := mcp.Endpoint{Node: 2, Port: 2}
	owner := cl.Spawn(0, 0, func(p *host.Process) {
		var err error
		if port, err = gm.Open(p, cl.MCP(0), 2); err != nil {
			t.Error(err)
			return
		}
		note := func(ev mcp.HostEvent, how string) {
			out.states = append(out.states, portState{
				at: s.Now(), clock: p.Now(), kind: ev.Kind, src: ev.Src, data: string(ev.Data), how: how,
				mirrors: port.Mirrors(), pending: port.PendingEvents(), spans: named(rec),
			})
		}
		port.ProvideReceiveBuffers(p, 4)
		for i := 0; i < 2; i++ {
			if err := port.Send(p, mcp.Endpoint{Node: 1, Port: 2}, []byte{byte(i)}, nil); err != nil {
				t.Error(err)
				return
			}
		}
		port.ProvideBarrierBuffer(p)
		if err := port.BarrierSend(p, &mcp.BarrierToken{Alg: mcp.PE}); err != nil {
			t.Error(err)
			return
		}
		var ev mcp.HostEvent
		if f := (&filter{from: rank2, file: func(ev mcp.HostEvent) { note(ev, "filed") }}); filtered {
			ev = port.ReceiveFor(p, f)
		} else {
			for ev = port.ReceiveFor(p, anyEvent{}); !f.Ends(ev.Kind, ev.Src); ev = port.ReceiveFor(p, anyEvent{}) {
				f.File(ev)
			}
		}
		note(ev, "ended")
		for len(out.states) < waitEvents {
			if ev, ok := port.TryReceive(p); ok {
				note(ev, "polled")
			} else {
				p.Compute(sim.Microsecond)
			}
		}
		out.end = p.Now()
	})
	sender := func(rank int, delays ...sim.Time) {
		cl.Spawn(rank, rank, func(p *host.Process) {
			pt, err := gm.Open(p, cl.MCP(rank), 2)
			if err != nil {
				t.Error(err)
				return
			}
			pt.ProvideReceiveBuffers(p, 2)
			start := p.Now()
			for i, d := range delays {
				if p.Now() < start+d {
					p.Compute(start + d - p.Now())
				}
				if err := pt.Send(p, mcp.Endpoint{Node: 0, Port: 2}, []byte(fmt.Sprintf("%d.%d", rank, i)), nil); err != nil {
					t.Error(err)
					return
				}
			}
			for i := 0; i < len(delays); i++ {
				pt.ReceiveFor(p, anyEvent{})
			}
			if rank == 1 {
				pt.ReceiveFor(p, anyEvent{}) // rank 0's two messages
				pt.ReceiveFor(p, anyEvent{})
			}
		})
	}
	sender(1, sc.d1)
	sender(2, sc.d2, sc.d2+4*sim.Microsecond)
	if sc.killAt >= 0 {
		s.At(sc.killAt, owner.Proc().Kill)
	}
	s.Run()
	out.pending = port.PendingEvents()
	out.spans = named(rec)
	out.switches = s.Switches()
	return out
}

// TestReceiveForMatchesWakingForEveryEvent sweeps when the two senders'
// messages arrive against rank 0's own send and barrier completions, so the
// awaited message comes first, last and everywhere between, and some events
// arrive while the owner polls: after every event the two twins show the
// same clock, spans, mirrors and queue, and the filtered one resumed the
// owner once for each event it did not file.
func TestReceiveForMatchesWakingForEveryEvent(t *testing.T) {
	retired := 0
	for d1 := sim.Time(0); d1 <= 42*sim.Microsecond; d1 += 7 * sim.Microsecond {
		for d2 := sim.Time(0); d2 <= 42*sim.Microsecond; d2 += 3 * sim.Microsecond {
			sc := waitScript{d1: d1, d2: d2, killAt: -1}
			a, b := sc.run(t, true), sc.run(t, false)
			if len(a.states) != waitEvents {
				t.Fatalf("%+v: rank 0 had %d events, want %d", sc, len(a.states), waitEvents)
			}
			if d := diff(a.states, b.states); d != "" {
				t.Fatalf("%+v: %s", sc, d)
			}
			if a.end != b.end || !slices.Equal(a.spans, b.spans) {
				t.Fatalf("%+v: the runs end differently: clock %v and %v, %d and %d spans", sc, a.end, b.end, len(a.spans), len(b.spans))
			}
			filed := 0
			for _, st := range a.states {
				if st.how == "filed" {
					filed++
				}
			}
			retired += filed
			if b.switches-a.switches != int64(filed) {
				t.Errorf("%+v: %d resumes filtered, %d woken for every event; %d events were filed", sc, a.switches, b.switches, filed)
			}
		}
	}
	if retired == 0 {
		t.Error("no event was ever retired while the owner waited")
	}
}

// TestKilledWaiterLeavesEventsQueued: an owner killed while it waits is never
// charged for what arrives after; the events stay queued, as the wakes of a
// killed process are dropped, and both twins end alike. The kill comes after
// the barrier and the first send completion were filed (42.3 and 45.9 µs)
// and before the second (64.2 µs).
func TestKilledWaiterLeavesEventsQueued(t *testing.T) {
	sc := waitScript{d1: 42 * sim.Microsecond, d2: 42 * sim.Microsecond, killAt: 50 * sim.Microsecond}
	a, b := sc.run(t, true), sc.run(t, false)
	if d := diff(a.states, b.states); d != "" {
		t.Fatalf("killed owner: %s", d)
	}
	if a.pending != b.pending || !slices.Equal(a.spans, b.spans) {
		t.Fatalf("killed owner: %d and %d events left queued, %d and %d spans", a.pending, b.pending, len(a.spans), len(b.spans))
	}
	if len(a.states) != 2 || a.pending != waitEvents-2 {
		t.Errorf("killed owner: %d events filed and %d left queued, want 2 and %d", len(a.states), a.pending, waitEvents-2)
	}
}
