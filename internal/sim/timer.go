package sim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
)

// Timer is a re-armable timeout: one callback, armed for a deadline and
// almost always withdrawn before it is due, as a retransmit timer is by the
// acknowledgment that follows its send a few microseconds later. An armed
// timer runs exactly as the event AtCall would have scheduled at the arm: Arm
// takes the key AtCall would have (Reserve), so the timer keeps the arm's
// place in same-instant order, and re-arming or Disarm withdraws the
// deadline as Cancel would. A firing counts in Executed and moves the clock;
// an armed timer counts in Pending.
//
// What a timer saves is the queue work. The simulator keeps each queued
// timer as one entry of a small binary heap beside the calendar, at a key no
// later than its deadline's: the key of some earlier arm. Disarm
// only clears a flag, and a re-arm to a deadline at or after the key only
// records it. When an entry surfaces — its key is earlier than every
// calendar event — it moves on to its deadline if that is later, is dropped
// if the timer was disarmed, and fires otherwise. Moving or dropping an
// entry is not an event: it runs nothing, counts nowhere and leaves the
// clock alone. Only a re-arm to a deadline before the key moves the entry up
// the heap.
type Timer struct {
	s     *Simulator
	fn    func(any)
	arg   any
	key   Key   // the deadline's, while armed
	pos   int32 // index of the entry in s.timers, -1 when not queued
	armed bool
}

// timerEntry is a queued timer at its key.
type timerEntry struct {
	key Key
	t   *Timer
}

// noTimer is Simulator.timerAt while no timer is queued: no event is due
// that late, so Step's one compare against it always fails.
const noTimer = Time(math.MaxInt64)

// NewTimer returns a disarmed timer that runs fn(arg) when it fires. Like
// AtCall's, fn is typically a method value built once and arg a pointer to
// the record the timeout belongs to; a component builds one timer per
// record and re-arms it for the record's life. Timers are built in chunks
// of cells, so building a cluster's timers costs a few allocations.
func (s *Simulator) NewTimer(fn func(any), arg any) *Timer {
	if fn == nil {
		panic("sim: nil timer function")
	}
	n := len(s.timerCells)
	if n == cap(s.timerCells) {
		// A timer lives as long as its simulator, so its cell is never
		// reused. Each chunk holds as many cells as all the earlier ones
		// together (the first timerFirst): the cells double in total, and
		// n timers take the power of two at or above n, where chunks that
		// doubled themselves (mem.Slab's rule) took up to 2n−8 (120 for
		// 64). The heap is grown to the cells, for no timer holds more
		// than one entry.
		c := max(timerFirst, s.timerTotal)
		s.timerCells, n = make([]Timer, 0, c), 0
		s.timerTotal += c
		s.timers = slices.Grow(s.timers, int(s.timerTotal)-len(s.timers))
	}
	s.timerCells = s.timerCells[:n+1]
	t := &s.timerCells[n]
	*t = Timer{s: s, fn: fn, arg: arg, pos: -1}
	return t
}

// timerFirst is the number of cells in the first chunk of timers.
const timerFirst = 8

// Arm sets the timer to fire at absolute time at, withdrawing the deadline
// it was armed for, if any: AtCall(at, fn, arg) after a Cancel of the event
// the previous arm stood for. Arming in the past panics.
func (t *Timer) Arm(at Time) {
	s := t.s
	if at < s.now {
		panic(fmt.Sprintf("sim: arming timer at %v before now %v", at, s.now))
	}
	if !t.armed {
		t.armed = true
		s.armed++
	}
	t.key = s.Reserve(at)
	switch {
	case t.pos < 0:
		t.pos = int32(len(s.timers))
		s.timers = append(s.timers, timerEntry{t.key, t})
		s.timerUp(int(t.pos))
	case t.key.Less(s.timers[t.pos].key):
		s.timers[t.pos].key = t.key
		s.timerUp(int(t.pos))
	}
}

// Disarm withdraws the timer's deadline, as Cancel would the event it
// stands for. Disarming a disarmed timer does nothing.
func (t *Timer) Disarm() {
	if t.armed {
		t.armed = false
		t.s.armed--
	}
}

// Armed reports whether the timer is armed: it fires unless disarmed or
// re-armed first.
func (t *Timer) Armed() bool { return t.armed }

// dueTimer settles the timer entries that surface ahead of calendar slot
// idx (-1: the calendar is empty) and returns the timer due before it, or
// nil. Settling moves early entries on to their deadlines and drops disarmed
// ones; it runs nothing and leaves the calendar as it was.
func (s *Simulator) dueTimer(idx int32) *Timer {
	for len(s.timers) > 0 {
		e := &s.timers[0]
		if idx >= 0 && s.slots[idx].key.Less(e.key) {
			return nil
		}
		t := e.t
		switch {
		case !t.armed:
			s.popTimer()
		case e.key != t.key:
			e.key = t.key
			s.timerDown(0)
		default:
			return t
		}
	}
	return nil
}

// fireDueTimer runs the timer due before calendar slot idx (-1: the
// calendar is empty), if any, as Step runs a calendar event: the clock moves
// to its deadline and it counts. It reports whether one ran.
func (s *Simulator) fireDueTimer(idx int32) bool {
	t := s.dueTimer(idx)
	if t == nil {
		return false
	}
	s.popTimer()
	t.armed = false
	s.armed--
	if s.begin(t.key) {
		runtime.Gosched()
	}
	t.fn(t.arg)
	return true
}

// popTimer removes the heap's top entry.
func (s *Simulator) popTimer() {
	h := s.timers
	h[0].t.pos = -1
	last := len(h) - 1
	if last > 0 {
		h[0] = h[last]
		h[0].t.pos = 0
	}
	h[last] = timerEntry{}
	s.timers = h[:last]
	if last > 0 {
		s.timerDown(0)
	} else {
		s.timerAt = noTimer
	}
}

// timerUp moves entry i up the heap to its place.
func (s *Simulator) timerUp(i int) {
	h := s.timers
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].key.Less(h[p].key) {
			break
		}
		h[i], h[p] = h[p], h[i]
		h[i].t.pos, h[p].t.pos = int32(i), int32(p)
		i = p
	}
	s.timerAt = h[0].key.At
}

// timerDown moves entry i down the heap to its place.
func (s *Simulator) timerDown(i int) {
	h := s.timers
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].key.Less(h[c].key) {
			c = r
		}
		if !h[c].key.Less(h[i].key) {
			break
		}
		h[i], h[c] = h[c], h[i]
		h[i].t.pos, h[c].t.pos = int32(i), int32(c)
		i = c
	}
	s.timerAt = h[0].key.At
}
