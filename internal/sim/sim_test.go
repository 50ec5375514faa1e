package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewSimulatorStartsAtZero(t *testing.T) {
	s := New()
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", s.Pending())
	}
}

func TestAfterRunsAtCorrectTime(t *testing.T) {
	s := New()
	var at Time = -1
	s.After(50, func() { at = s.Now() })
	s.Run()
	if at != 50 {
		t.Fatalf("event ran at %v, want 50", at)
	}
}

func TestAtAbsolute(t *testing.T) {
	s := New()
	var got Time
	s.At(123, func() { got = s.Now() })
	s.Run()
	if got != 123 {
		t.Fatalf("event ran at %v, want 123", got)
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New()
	var order []Time
	for _, d := range []Time{30, 10, 20, 5, 25} {
		d := d
		s.After(d, func() { order = append(order, d) })
	}
	s.Run()
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Fatalf("events out of order: %v", order)
	}
	if len(order) != 5 {
		t.Fatalf("ran %d events, want 5", len(order))
	}
}

func TestSameTimeEventsRunFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(7, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events ran out of FIFO order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var times []Time
	s.After(10, func() {
		times = append(times, s.Now())
		s.After(5, func() { times = append(times, s.Now()) })
	})
	s.Run()
	want := []Time{10, 15}
	if len(times) != 2 || times[0] != want[0] || times[1] != want[1] {
		t.Fatalf("times = %v, want %v", times, want)
	}
}

func TestScheduleAtNowFromEvent(t *testing.T) {
	s := New()
	ran := false
	s.After(10, func() {
		s.After(0, func() { ran = true })
	})
	s.Run()
	if !ran {
		t.Fatal("zero-delay event did not run")
	}
	if s.Now() != 10 {
		t.Fatalf("clock = %v, want 10", s.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.After(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	s.After(-1, func() {})
}

func TestNilEventPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("nil event fn did not panic")
		}
	}()
	s.After(1, nil)
}

func TestCancelPreventsExecution(t *testing.T) {
	s := New()
	ran := false
	id := s.After(10, func() { ran = true })
	if !s.Cancel(id) {
		t.Fatal("Cancel returned false for pending event")
	}
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestCancelTwiceReturnsFalse(t *testing.T) {
	s := New()
	id := s.After(10, func() {})
	if !s.Cancel(id) {
		t.Fatal("first Cancel failed")
	}
	if s.Cancel(id) {
		t.Fatal("second Cancel succeeded")
	}
}

func TestCancelAfterRunReturnsFalse(t *testing.T) {
	s := New()
	id := s.After(1, func() {})
	s.Run()
	if s.Cancel(id) {
		t.Fatal("Cancel of executed event succeeded")
	}
}

func TestPendingCountsCancelled(t *testing.T) {
	s := New()
	a := s.After(1, func() {})
	s.After(2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	s.Cancel(a)
	if s.Pending() != 1 {
		t.Fatalf("Pending after cancel = %d, want 1", s.Pending())
	}
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	s := New()
	var ran []Time
	for _, d := range []Time{5, 10, 15, 20} {
		d := d
		s.After(d, func() { ran = append(ran, d) })
	}
	s.RunUntil(15)
	if len(ran) != 3 {
		t.Fatalf("ran %d events, want 3 (inclusive boundary)", len(ran))
	}
	if s.Now() != 15 {
		t.Fatalf("clock = %v, want 15", s.Now())
	}
	s.Run()
	if len(ran) != 4 {
		t.Fatalf("remaining event lost: ran %d", len(ran))
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New()
	s.RunUntil(1000)
	if s.Now() != 1000 {
		t.Fatalf("clock = %v, want 1000", s.Now())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	s := New()
	if s.Step() {
		t.Fatal("Step on empty simulator returned true")
	}
}

func TestNextEventTime(t *testing.T) {
	s := New()
	if _, ok := s.NextEventTime(); ok {
		t.Fatal("NextEventTime reported an event on empty simulator")
	}
	id := s.After(42, func() {})
	if at, ok := s.NextEventTime(); !ok || at != 42 {
		t.Fatalf("NextEventTime = %v,%v want 42,true", at, ok)
	}
	s.Cancel(id)
	if _, ok := s.NextEventTime(); ok {
		t.Fatal("NextEventTime reported a cancelled event")
	}
}

// TestScheduleBehindPeekedMinimum pins pop order when a peek has moved the
// calendar's scan origin to a far event and later schedules land behind it:
// one close to the clock, one more than a calendar year after that but still
// before the peeked event. (Found by FuzzEventQueue: with the two-tier queue
// the middle event went to the overflow heap, the empty-year fallback looked
// only at buckets, and the far event ran first.)
func TestScheduleBehindPeekedMinimum(t *testing.T) {
	s := New()
	var order []string
	s.At(Millisecond, func() { order = append(order, "far") })
	if at, ok := s.NextEventTime(); !ok || at != Millisecond {
		t.Fatalf("NextEventTime = %v,%v want 1ms,true", at, ok)
	}
	s.At(100, func() { order = append(order, "near") })
	s.At(500*Microsecond, func() { order = append(order, "middle") })
	s.Run()
	if got := fmt.Sprint(order); got != "[near middle far]" {
		t.Fatalf("pop order %s, want [near middle far]", got)
	}
}

func TestExecutedCounter(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		s.After(Time(i), func() {})
	}
	s.Run()
	if s.Executed() != 5 {
		t.Fatalf("Executed = %d, want 5", s.Executed())
	}
}

func TestTimeMicros(t *testing.T) {
	if got := (102140 * Nanosecond).Micros(); got != 102.14 {
		t.Fatalf("Micros = %v, want 102.14", got)
	}
	if got := FromMicros(102.14); got != 102140 {
		t.Fatalf("FromMicros = %v, want 102140", got)
	}
	if got := FromMicros(-1.5); got != -1500 {
		t.Fatalf("FromMicros(-1.5) = %v, want -1500", got)
	}
}

func TestTimeString(t *testing.T) {
	if got := FromMicros(49.25).String(); got != "49.25us" {
		t.Fatalf("String = %q, want 49.25us", got)
	}
}

func TestUnitConstants(t *testing.T) {
	if Microsecond != 1000*Nanosecond || Millisecond != 1000*Microsecond || Second != 1000*Millisecond {
		t.Fatal("unit constants inconsistent")
	}
}

// Property: regardless of the insertion order of random delays, events
// execute in nondecreasing time order and all events execute.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		count := int(n%64) + 1
		var ran []Time
		for i := 0; i < count; i++ {
			d := Time(rng.Intn(1000))
			s.After(d, func() { ran = append(ran, s.Now()) })
		}
		s.Run()
		if len(ran) != count {
			return false
		}
		return sort.SliceIsSorted(ran, func(i, j int) bool { return ran[i] < ran[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: two simulators fed the same schedule execute events in the
// identical order (determinism).
func TestPropertyDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		run := func() []int {
			rng := rand.New(rand.NewSource(seed))
			s := New()
			var order []int
			for i := 0; i < 50; i++ {
				i := i
				s.After(Time(rng.Intn(100)), func() { order = append(order, i) })
			}
			s.Run()
			return order
		}
		a, b := run(), run()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: cancelling a random subset of events means exactly the
// complement executes.
func TestPropertyCancellation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		n := 40
		ids := make([]EventID, n)
		ran := make([]bool, n)
		for i := 0; i < n; i++ {
			i := i
			ids[i] = s.After(Time(rng.Intn(100)+1), func() { ran[i] = true })
		}
		cancelled := make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				cancelled[i] = true
				s.Cancel(ids[i])
			}
		}
		s.Run()
		for i := 0; i < n; i++ {
			if ran[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// An elided event holds the clock's end of run where the event would have
// left it, and only there: an instant the loop passes anyway changes
// nothing, nor does RunUntil, which ends at its own instant.
func TestRunEndsAtElidedEvent(t *testing.T) {
	s := New()
	s.At(10, func() {})
	s.Elide(5)
	s.Run()
	if s.Now() != 10 {
		t.Fatalf("elided event behind the last: clock %v, want 10", s.Now())
	}
	s.Elide(40)
	s.At(20, func() {})
	s.RunUntil(30)
	if s.Now() != 30 {
		t.Fatalf("RunUntil(30): clock %v", s.Now())
	}
	s.Run()
	if s.Now() != 40 {
		t.Fatalf("elided event after the last: clock %v, want 40", s.Now())
	}
}
