package sim

import (
	"fmt"
	"math"
	"runtime"
)

// Timer is a re-armable timeout: one callback, armed for a deadline and
// almost always withdrawn before it is due, as a retransmit timer is by the
// acknowledgment that follows its send a few microseconds later. An armed
// timer runs exactly as the event AtCall would have scheduled at the arm: Arm
// takes a sequence number where AtCall would take one, so the timer keeps the
// arm's place in same-instant order, and re-arming or Disarm withdraws the
// deadline as Cancel would. A firing counts in Executed and moves the clock;
// an armed timer counts in Pending.
//
// What a timer saves is the queue work. The simulator keeps each queued
// timer as one entry of a small binary heap beside the calendar, at a key no
// later than its deadline: the (time, sequence) of some earlier arm. Disarm
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
	at    Time  // the deadline while armed
	seq   int64 // the arm's place in same-instant order
	pos   int32 // index of the entry in s.timers, -1 when not queued
	armed bool
}

// timerEntry is a queued timer at its key.
type timerEntry struct {
	at  Time
	seq int64
	t   *Timer
}

// noTimer is Simulator.timerAt while no timer is queued: no event is due
// that late, so Step's one compare against it always fails.
const noTimer = Time(math.MaxInt64)

// NewTimer returns a disarmed timer that runs fn(arg) when it fires. Like
// AtCall's, fn is typically a method value built once and arg a pointer to
// the record the timeout belongs to; a component builds one timer per
// record and re-arms it for the record's life. Timers are built in chunks that double from timerChunkFirst, so building
// a cluster's timers costs a few allocations.
func (s *Simulator) NewTimer(fn func(any), arg any) *Timer {
	if fn == nil {
		panic("sim: nil timer function")
	}
	if len(s.timerChunk) == cap(s.timerChunk) {
		n := max(timerChunkFirst, 2*cap(s.timerChunk))
		s.timerChunk = make([]Timer, 0, n)
	}
	s.timerChunk = s.timerChunk[:len(s.timerChunk)+1]
	t := &s.timerChunk[len(s.timerChunk)-1]
	*t = Timer{s: s, fn: fn, arg: arg, pos: -1}
	return t
}

// timerChunkFirst is the number of timers in a simulator's first chunk.
const timerChunkFirst = 8

// Arm sets the timer to fire at absolute time at, withdrawing the deadline
// it was armed for, if any: AtCall(at, fn, arg) after a Cancel of the event
// the previous arm stood for. Arming in the past panics.
func (t *Timer) Arm(at Time) {
	s := t.s
	if at < s.now {
		panic(fmt.Sprintf("sim: arming timer at %v before now %v", at, s.now))
	}
	s.seq++
	if !t.armed {
		t.armed = true
		s.armed++
	}
	t.at, t.seq = at, s.seq
	switch {
	case t.pos < 0:
		t.pos = int32(len(s.timers))
		s.timers = append(s.timers, timerEntry{at: at, seq: t.seq, t: t})
		s.timerUp(int(t.pos))
	case at < s.timers[t.pos].at:
		// The new sequence number is the latest, so an earlier deadline is
		// one at an earlier instant.
		e := &s.timers[t.pos]
		e.at, e.seq = at, t.seq
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
		if idx >= 0 {
			if sl := &s.slots[idx]; sl.at < e.at || (sl.at == e.at && sl.seq < e.seq) {
				return nil
			}
		}
		t := e.t
		switch {
		case !t.armed:
			s.popTimer()
		case e.seq != t.seq:
			e.at, e.seq = t.at, t.seq
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
	s.running = t.seq
	s.gapEMA += (float64(t.at-s.lastPopAt) - s.gapEMA) * 0.05
	s.lastPopAt = t.at
	s.now = t.at
	s.executed++
	if s.executed%yieldEvery == 0 {
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

// timerLess orders heap entries by key.
func timerLess(a, b *timerEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// timerUp moves entry i up the heap to its place.
func (s *Simulator) timerUp(i int) {
	h := s.timers
	for i > 0 {
		p := (i - 1) / 2
		if !timerLess(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		h[i].t.pos, h[p].t.pos = int32(i), int32(p)
		i = p
	}
	s.timerAt = h[0].at
}

// timerDown moves entry i down the heap to its place.
func (s *Simulator) timerDown(i int) {
	h := s.timers
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && timerLess(&h[r], &h[c]) {
			c = r
		}
		if !timerLess(&h[c], &h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		h[i].t.pos, h[c].t.pos = int32(i), int32(c)
		i = c
	}
	s.timerAt = h[0].at
}
