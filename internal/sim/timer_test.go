package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// timeout is what a model asks of a re-armable timeout; the differential
// below runs one program over both forms.
type timeout interface {
	arm(at Time)
	disarm()
	armed() bool
}

// heapTimeout is the form under test, a Timer.
type heapTimeout struct{ t *Timer }

func (h heapTimeout) arm(at Time) { h.t.Arm(at) }
func (h heapTimeout) disarm()     { h.t.Disarm() }
func (h heapTimeout) armed() bool { return h.t.Armed() }

// eventTimeout is the form a Timer replaces: an AtCall event per arm, and a
// Cancel of the previous one.
type eventTimeout struct {
	s      *Simulator
	fn     func(any)
	arg    any
	fireFn func(any)
	id     EventID
}

func newEventTimeout(s *Simulator, fn func(any), arg any) *eventTimeout {
	e := &eventTimeout{s: s, fn: fn, arg: arg}
	e.fireFn = e.fire
	return e
}

func (e *eventTimeout) arm(at Time) {
	e.disarm()
	e.id = e.s.AtCall(at, e.fireFn, nil)
}

func (e *eventTimeout) fire(any) {
	e.id = 0
	e.fn(e.arg)
}

func (e *eventTimeout) disarm() {
	if e.id != 0 {
		e.s.Cancel(e.id)
		e.id = 0
	}
}

func (e *eventTimeout) armed() bool { return e.id != 0 }

// timerProgram is one seeded run of ordinary events and timeouts: every
// callback logs what it sees, then schedules events and arms, disarms and
// re-arms timeouts, drawing from the program's own stream.
type timerProgram struct {
	s        *Simulator
	rng      *rand.Rand
	timeouts []timeout
	fired    []int // by timeout: its callbacks so far
	budget   int   // events and arms the callbacks may still make
	log      []string
	eventFn  func(any)
}

// timerDelays are the horizons a program draws from. Few and small, so
// deadlines and events often share an instant, and a re-arm often lands
// before the deadline it withdraws.
var timerDelays = []Time{0, 0, 1, 3, 7, 20, 50, 200, 1000}

func (p *timerProgram) delay() Time { return timerDelays[p.rng.Intn(len(timerDelays))] }

func (p *timerProgram) note(what string) {
	p.log = append(p.log, fmt.Sprintf("%s at %d: executed %d pending %d",
		what, p.s.Now(), p.s.Executed(), p.s.Pending()))
}

func (p *timerProgram) event(a any) {
	p.note(fmt.Sprintf("event %d", *a.(*int)))
	p.act()
}

func (p *timerProgram) timerFired(a any) {
	i := *a.(*int)
	p.fired[i]++
	p.note(fmt.Sprintf("timer %d (firing %d)", i, p.fired[i]))
	if p.budget > 0 && p.rng.Intn(3) == 0 {
		// Re-arm inside its own callback.
		p.budget--
		p.timeouts[i].arm(p.s.Now() + p.delay())
	}
	p.act()
}

// act is what a callback or the program between runs does: schedule
// events, then touch timeouts.
func (p *timerProgram) act() {
	for n := p.rng.Intn(3); n > 0 && p.budget > 0; n-- {
		p.budget--
		id := new(int)
		*id = p.budget
		p.s.AtCall(p.s.Now()+p.delay(), p.eventFn, id)
	}
	for n := p.rng.Intn(4); n > 0; n-- {
		to := p.timeouts[p.rng.Intn(len(p.timeouts))]
		switch op := p.rng.Intn(4); {
		case op == 0 || p.budget == 0:
			to.disarm()
		case op == 1 && to.armed():
			// Re-arm sooner than the likely deadline.
			p.budget--
			to.arm(p.s.Now() + Time(p.rng.Intn(3)))
		default:
			p.budget--
			to.arm(p.s.Now() + p.delay())
		}
	}
}

// runTimerProgram runs the program seed draws, its timeouts Timers when
// heap is set and AtCall events otherwise, and returns its log.
func runTimerProgram(seed int64, heap bool) []string {
	s := New()
	p := &timerProgram{s: s, rng: rand.New(rand.NewSource(seed)), budget: 400}
	p.eventFn = p.event
	n := 1 + p.rng.Intn(4)
	p.fired = make([]int, n)
	for i := 0; i < n; i++ {
		arg := new(int)
		*arg = i
		if heap {
			p.timeouts = append(p.timeouts, heapTimeout{s.NewTimer(p.timerFired, arg)})
		} else {
			p.timeouts = append(p.timeouts, newEventTimeout(s, p.timerFired, arg))
		}
	}
	// Phases: act from outside the loop, then run to an instant that often
	// falls between an early entry and its deadline.
	for phase := 0; phase < 6; phase++ {
		p.act()
		t := s.Now() + Time(p.rng.Intn(300))
		s.RunUntil(t)
		p.note(fmt.Sprintf("RunUntil(%d)", t))
	}
	// Leave some timeouts disarmed, some armed, then drain: the callbacks
	// may only disarm now, so the run ends with stale entries behind it.
	p.budget = 0
	p.act()
	s.Run()
	p.note("Run")
	if q := s.QueuedTimers(); heap && q != 0 {
		p.note(fmt.Sprintf("%d timer entries left queued", q))
	}
	return p.log
}

// TestTimerMatchesCancelledEvents holds a Timer to the AtCall + Cancel form
// it replaces, over seeded programs that mix ordinary events with arms,
// disarms and re-arms: same-instant ties, re-arms to an earlier deadline,
// re-arms inside the timer's own callback, RunUntil stopping between an
// early entry and its deadline, and timers left disarmed when Run ends. Every
// callback, and every return from RunUntil and Run, must see the same clock,
// Executed and Pending.
// TestTimerCellsDoubleInTotal pins the timer cells' sizing rule: each chunk
// holds as many cells as all the earlier ones together, so 64 timers take
// 64 cells (chunks that doubled themselves took 120) and the 65th a chunk of
// 64 more, and the heap is sized to the cells, so arming every timer grows
// nothing.
func TestTimerCellsDoubleInTotal(t *testing.T) {
	s := New()
	fn := func(any) {}
	timers := make([]*Timer, 64)
	for i := range timers {
		timers[i] = s.NewTimer(fn, nil)
	}
	if s.timerTotal != 64 || cap(s.timers) < 64 {
		t.Fatalf("64 timers: %d cells, heap capacity %d; want 64 and at least 64", s.timerTotal, cap(s.timers))
	}
	heap := cap(s.timers)
	for i, tm := range timers {
		tm.Arm(Time(i + 1))
	}
	if len(s.timers) != 64 || cap(s.timers) != heap {
		t.Errorf("arming 64 timers: heap %d entries, capacity %d → %d; want 64 and no growth", len(s.timers), heap, cap(s.timers))
	}
	s.NewTimer(fn, nil)
	if s.timerTotal != 128 {
		t.Fatalf("65 timers: %d cells, want 128", s.timerTotal)
	}
	s.Run()
}

func TestTimerMatchesCancelledEvents(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		want, got := runTimerProgram(seed, false), runTimerProgram(seed, true)
		for i := range max(len(want), len(got)) {
			var w, g string
			if i < len(want) {
				w = want[i]
			}
			if i < len(got) {
				g = got[i]
			}
			if w != g {
				t.Fatalf("seed %d, line %d:\n  events: %s\n  timers: %s", seed, i, w, g)
			}
		}
	}
}

// TestTimerSettlesWithoutAnEvent walks one timer through the cases the
// heap handles apart from firing: an entry that surfaces before its deadline
// moves on to it, a disarmed one is dropped, and neither runs anything,
// counts in Executed or moves the clock; a re-arm to an earlier deadline
// moves the entry up.
func TestTimerSettlesWithoutAnEvent(t *testing.T) {
	s := New()
	var fired []Time
	tm := s.NewTimer(func(any) { fired = append(fired, s.Now()) }, nil)
	check := func(when string, now Time, pending, queued int) {
		t.Helper()
		if s.Now() != now || s.Executed() != int64(len(fired)) || s.Pending() != pending || s.QueuedTimers() != queued {
			t.Fatalf("%s: now %d, executed %d, pending %d, queued %d; want %d, %d, %d, %d",
				when, s.Now(), s.Executed(), s.Pending(), s.QueuedTimers(), now, len(fired), pending, queued)
		}
	}
	tm.Arm(100)
	s.RunUntil(10)
	tm.Arm(500) // the entry stays keyed at 100
	check("re-armed later", 10, 1, 1)
	s.RunUntil(300) // it surfaces at 100 and moves to 500
	check("RunUntil between key and deadline", 300, 1, 1)
	if len(fired) != 0 {
		t.Fatalf("timer fired at %v before its deadline", fired)
	}
	tm.Disarm()
	check("disarmed", 300, 0, 1)
	s.Run() // the disarmed entry is dropped
	check("Run", 300, 0, 0)
	tm.Arm(400)
	tm.Arm(350) // earlier than the key: the entry moves up
	s.RunUntil(360)
	if len(fired) != 1 || fired[0] != 350 {
		t.Fatalf("re-armed to 350: fired at %v", fired)
	}
	check("fired", 360, 0, 0)
}
