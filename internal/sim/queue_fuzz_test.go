package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// queueModel is the reference the event queue is checked against: the
// pending events as a slice kept sorted by (at, seq).
type queueModel struct {
	pending []modelEvent
	seq     int64
}

type modelEvent struct {
	at  Time
	seq int64
	id  int
}

func (m *queueModel) insert(at Time, id int) {
	m.seq++
	e := modelEvent{at: at, seq: m.seq, id: id}
	i := sort.Search(len(m.pending), func(i int) bool {
		p := m.pending[i]
		return p.at > e.at || (p.at == e.at && p.seq > e.seq)
	})
	m.pending = append(m.pending, modelEvent{})
	copy(m.pending[i+1:], m.pending[i:])
	m.pending[i] = e
}

// remove drops the pending event with model id, if any.
func (m *queueModel) remove(id int) {
	for i, e := range m.pending {
		if e.id == id {
			m.removeAt(i)
			return
		}
	}
}

func (m *queueModel) removeAt(i int) modelEvent {
	e := m.pending[i]
	m.pending = append(m.pending[:i], m.pending[i+1:]...)
	return e
}

// queueDelay draws a delay from the horizons the stack produces: same-time
// tranches, sub-bucket hops, firmware tasks, host compute, retransmit timers
// (1–17 ms) and fault windows (seconds). class picks the horizon.
func queueDelay(rng *rand.Rand, class int) Time {
	switch class {
	case 0:
		return 0
	case 1:
		return Time(rng.Intn(64))
	case 2:
		return Time(rng.Intn(5000))
	case 3:
		return Time(rng.Intn(200000))
	case 4:
		return Millisecond + Time(rng.Int63n(int64(16*Millisecond)))
	default:
		return Time(rng.Int63n(int64(3 * Second)))
	}
}

// FuzzEventQueue drives the queue and the sorted-slice model with the same
// operations and asserts, after every Step, the popped event, the clock,
// NextEventTime and Pending. A fifth of the schedules arm one of a few
// Timers instead (the model withdraws the deadline the previous arm set and
// inserts the new one), a cancel of a timer's deadline is a Disarm, and a
// timer that fires may re-arm itself. A run is three rounds of: a burst of up to 600
// schedules from outside the loop (grows the calendar, and lands events
// behind a curDay that the preceding NextEventTime peek advanced), a drain
// in which callbacks schedule children and cancel random pending events,
// and a mass cancel (shrinks the calendar). Each seed draws its own mix of
// delay horizons, so some runs are all same-year and some mostly timers
// many years ahead. The seed corpus runs under plain `go test`.
func FuzzEventQueue(f *testing.F) {
	for seed := int64(0); seed < 256; seed++ {
		f.Add(seed, uint16(seed*47%601))
	}
	f.Fuzz(func(t *testing.T, seed int64, burst uint16) {
		checkEventQueue(t, seed, int(burst%601))
	})
}

func checkEventQueue(t *testing.T, seed int64, burst int) {
	rng := rand.New(rand.NewSource(seed))
	s := New()
	var m queueModel

	// Per-seed horizon mix: cumulative weights over the six delay classes.
	var cum [6]int
	total := 0
	for i := range cum {
		total += rng.Intn(8)
		cum[i] = total
	}
	if total == 0 {
		cum[5], total = 1, 1
	}
	delay := func() Time {
		w := rng.Intn(total)
		class := 0
		for w >= cum[class] {
			class++
		}
		return queueDelay(rng, class)
	}

	var eids []EventID       // by model id; valid while the id is pending
	var timerOf []*fuzzTimer // by model id; the timer an arm is of, or nil
	children := 3*burst + 64 // callbacks may schedule this many in all
	popped := -1

	var fire func(any)
	timers := make([]*fuzzTimer, rng.Intn(4))
	for i := range timers {
		timers[i] = &fuzzTimer{cur: -1}
		timers[i].t = s.NewTimer(func(a any) { fire(a) }, &timers[i].cur)
	}
	arm := func(ft *fuzzTimer) {
		if ft.cur >= 0 {
			m.remove(ft.cur)
		}
		id := len(eids)
		at := s.Now() + delay()
		eids = append(eids, 0)
		timerOf = append(timerOf, ft)
		ft.cur = id
		ft.t.Arm(at)
		m.insert(at, id)
	}
	schedule := func() {
		if len(timers) > 0 && rng.Intn(5) == 0 {
			arm(timers[rng.Intn(len(timers))])
			return
		}
		id := len(eids)
		at := s.Now() + delay()
		// Alternate the three scheduling forms; they share one queue. Each
		// event carries a pointer to its model id.
		arg := &id
		var eid EventID
		switch id % 3 {
		case 0:
			eid = s.AtCall(at, fire, arg)
		case 1:
			eid = s.At(at, func() { fire(arg) })
		default:
			eid = s.After(at-s.Now(), func() { fire(arg) })
		}
		eids = append(eids, eid)
		timerOf = append(timerOf, nil)
		m.insert(at, id)
	}
	cancelRandom := func() {
		if len(m.pending) == 0 {
			return
		}
		e := m.removeAt(rng.Intn(len(m.pending)))
		if ft := timerOf[e.id]; ft != nil {
			ft.t.Disarm()
			ft.cur = -1
			return
		}
		if !s.Cancel(eids[e.id]) {
			t.Fatalf("seed %d: Cancel of pending event %d (at %d) returned false", seed, e.id, e.at)
		}
		if s.Cancel(eids[e.id]) {
			t.Fatalf("seed %d: second Cancel of event %d returned true", seed, e.id)
		}
	}
	check := func(when string) {
		if got := s.Pending(); got != len(m.pending) {
			t.Fatalf("seed %d %s: Pending = %d, model has %d", seed, when, got, len(m.pending))
		}
		at, ok := s.NextEventTime()
		if len(m.pending) == 0 {
			if ok {
				t.Fatalf("seed %d %s: NextEventTime = %d with an empty model", seed, when, at)
			}
			return
		}
		if !ok || at != m.pending[0].at {
			t.Fatalf("seed %d %s: NextEventTime = %d, %v; model head is event %d at %d",
				seed, when, at, ok, m.pending[0].id, m.pending[0].at)
		}
	}
	fire = func(arg any) {
		id := *arg.(*int)
		if len(m.pending) == 0 {
			t.Fatalf("seed %d: event %d ran with an empty model", seed, id)
		}
		want := m.removeAt(0)
		if id != want.id || s.Now() != want.at {
			t.Fatalf("seed %d: popped event %d at %d, model head is event %d at %d",
				seed, id, s.Now(), want.id, want.at)
		}
		if s.Cancel(eids[id]) {
			t.Fatalf("seed %d: Cancel of the running event %d returned true", seed, id)
		}
		popped = id
		if ft := timerOf[id]; ft != nil {
			ft.cur = -1
			if ft.t.Armed() {
				t.Fatalf("seed %d: timer still armed in its own callback", seed)
			}
			if children > 0 && rng.Intn(2) == 0 {
				children--
				arm(ft)
			}
		}
		for n := rng.Intn(4); n > 0 && children > 0; n-- {
			children--
			schedule()
		}
		if rng.Intn(3) == 0 {
			cancelRandom()
		}
		if rng.Intn(8) == 0 {
			check("inside callback") // a peek here moves curDay mid-callback
			schedule()
			cancelRandom()
		}
	}

	for round := 0; round < 3; round++ {
		for i := 0; i < burst; i++ {
			schedule()
		}
		check("after burst")
		// Drain to a quarter of the burst (to empty in the last round).
		floor := burst / 4
		if round == 2 {
			floor = 0
			children = 0 // the run must end
		}
		for len(m.pending) > floor {
			popped = -1
			if !s.Step() {
				t.Fatalf("seed %d: Step returned false with %d events in the model", seed, len(m.pending))
			}
			if popped < 0 {
				t.Fatalf("seed %d: Step ran no callback", seed)
			}
			check("after step")
		}
		for n := len(m.pending) / 2; n > 0; n-- {
			cancelRandom()
		}
		check("after mass cancel")
	}
	if s.Step() {
		t.Fatalf("seed %d: Step ran an event after the model emptied", seed)
	}
}

// fuzzTimer is one of FuzzEventQueue's timers and the model id of its armed
// deadline (-1: disarmed), which its callback's argument points at.
type fuzzTimer struct {
	t   *Timer
	cur int
}
