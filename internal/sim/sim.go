// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a priority queue of timestamped events and a virtual
// clock measured in nanoseconds. Events scheduled for the same instant run
// in the order they were scheduled, which makes every simulation run
// bit-for-bit reproducible.
//
// Two execution styles are supported on top of the same clock:
//
//   - callback events, scheduled with AtCall as a prebuilt fn(arg), for
//     modeling hardware state machines (NIC firmware, DMA engines, switch
//     ports); At and After wrap a one-off closure in the same form;
//   - processes (see Proc), coroutines the event loop switches into and
//     out of directly, for modeling host programs written in a blocking
//     style.
//
// Every same-instant decision goes through one order key (Key): an event's
// instant and its sequence number, handed out in scheduling order. A model
// that works out in closed form what an event would have done reserves the
// key that event would have had (Reserve) and asks whether the loop has
// passed it (Passed).
//
// The event queue is a calendar queue and nothing else: an array of day
// buckets, each a doubly-linked list (threaded through the free-listed slot
// pool, so scheduling allocates nothing) kept sorted by key.
// An event at time t lives in bucket (t >> widthLog) & mask whatever its
// horizon, so a bucket may also hold entries of later years; they sort
// behind the current day's, and the pop skips them by comparing the head's
// day with the day being scanned. Our fabrics produce short-horizon event
// distributions — most pending events sit within a few bucket widths of
// the clock — so schedule and pop are O(1) amortized: an insert lands at or
// near its bucket's tail, and a pop takes the head of the current day. The
// bucket width adapts to the observed inter-event gap and the bucket count
// to the pending-event population. Each slot records its bucket, so Cancel
// is an O(1) unlink at every horizon.
//
// Timeouts that are almost always withdrawn before they are due — a
// retransmit timer every acknowledgment withdraws, a watchdog — are Timers,
// kept in a small heap beside the calendar (see Timer): arming, withdrawing
// and re-arming one touches no bucket.
package sim

import (
	"fmt"
	"runtime"
	"slices"
)

// Time is a simulated instant or duration in nanoseconds.
type Time int64

// Convenient duration units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Micros reports t as a floating-point count of microseconds, the unit the
// paper reports all latencies in.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the time in microseconds with two decimals, e.g. "102.14us".
func (t Time) String() string { return fmt.Sprintf("%.2fus", t.Micros()) }

// FromMicros converts a floating-point microsecond count to a Time,
// rounding to the nearest nanosecond.
func FromMicros(us float64) Time {
	if us < 0 {
		return Time(float64(us*1000) - 0.5)
	}
	return Time(float64(us*1000) + 0.5)
}

// Key is an event's place in the order events run: by instant, and among
// events due at one instant by sequence number, which the simulator hands
// out in scheduling order (Reserve).
type Key struct {
	At  Time
	Seq int64
}

// Less reports whether the event keyed k runs before the one keyed o.
func (k Key) Less(o Key) bool { return k.At < o.At || k.At == o.At && k.Seq < o.Seq }

// EventID identifies a scheduled event so it can be cancelled.
// The zero EventID is never issued.
//
// An EventID packs the event's pool-slot index (low 32 bits, offset by one
// so the zero ID stays invalid) with the slot's generation counter (high 32
// bits). The generation is bumped every time a slot is recycled, so a stale
// ID — one whose event already ran or was cancelled — can never alias a
// newer event that happens to reuse the slot.
type EventID int64

// locFree marks a slot on the free list (slot.loc). Non-negative values are
// calendar bucket indices.
const locFree int32 = -1

// slot is a pooled event body: its callback fn(arg) (see AtCall). Bucket
// membership is a doubly-linked list through prev/next.
type slot struct {
	key        Key
	fn         func(any)
	arg        any
	prev, next int32 // bucket list links; next doubles as the free-list link
	gen        int32
	loc        int32 // locFree or calendar bucket index
}

// Calendar tuning constants.
const (
	initialBuckets  = 64
	minBuckets      = 16
	initialWidthLog = 8 // 256 ns buckets until the gap estimate kicks in
	// maxWidthLog caps the bucket width at ~1 ms so day arithmetic stays
	// far from overflow even for second-scale timestamps.
	maxWidthLog = 20
	// longScanLimit/longScanTrigger: a sorted bucket insert that walks more
	// than longScanLimit entries counts as a long scan; accumulating
	// longScanTrigger of them forces a rebuild with a freshly estimated
	// width (the signature of a mis-tuned calendar). longScanTrigger pops
	// that overrun the year (findMin's direct sweep) force one too, with a
	// width fitted to the pending events' horizons instead.
	longScanLimit   = 16
	longScanTrigger = 64
)

// yieldEvery is how many executed events pass between cooperative
// runtime.Gosched calls in Step. Process wakes are direct coroutine
// switches, so the event loop never enters the Go scheduler on its own; on
// one P the collector's background mark worker, sweeper and scavenger would
// then run only at sysmon's 10 ms preemption, the loop would pay for marking
// in allocation assists instead, and the heap would overshoot (+20–40 % peak
// RSS measured on the 16-node benchmark cells). One yield per 4096 events
// costs under 0.1 ns/event and restores the collector's share.
const yieldEvery = 4096

// Simulator is a discrete-event simulator. The zero value is not usable;
// call New.
type Simulator struct {
	now Time

	// Calendar queue.
	buckets   []int32 // head slot per bucket, -1 empty; sorted by key
	tails     []int32 // tail slot per bucket, -1 empty
	mask      int64   // len(buckets)-1 (bucket count is a power of two)
	widthLog  uint    // bucket width = 1 << widthLog nanoseconds
	curDay    int64   // lower bound on the earliest day present in the calendar
	calCount  int     // pending events
	minCache  int32   // slot index of the known-minimum event, -1 if unknown
	gapEMA    float64 // moving average of inter-pop time gaps, for width tuning
	lastPopAt Time
	longScans int
	overruns  int // pops since the last rebuild that found no event within a year

	// probes counts the buckets findMin has looked at, sweeps its direct
	// sweeps, over the simulator's life (read by tests).
	probes, sweeps int64

	rebuildScratch []int32 // reused by rebuild to re-place pending events
	horizonScratch []Time  // reused by horizonWidth

	slots   []slot
	free    int32 // head of the free-slot list, -1 when empty
	armed   int32 // armed timers (see Timer), in free's padding
	seq     int64 // the last sequence number handed out (Reserve)
	running int64 // sequence number of the event now running (see Passed)
	elided  Time  // the latest instant of an event a model elided (Elide)

	executed int64
	switches int64   // process resumes
	procs    int32   // live (spawned, not finished) processes
	blocked  int32   // processes parked on a Signal with no pending wake
	spawned  []*Proc // every process ever spawned, for Close

	// Timers (see Timer): the earliest key's instant (noTimer when none is
	// queued), the heap of queued entries by key, the newest chunk of cells
	// timers are built in (NewTimer) and the cells of all chunks. They and
	// placed sit after the fields above so as not to move those: with
	// timerAt beside minCache and placed beside seq, nic16, which arms no
	// timer, read about 4 % slower. The int32 counters keep the Simulator in
	// the 384-byte size class.
	timerAt    Time
	timers     []timerEntry
	timerCells []Timer
	timerTotal int32

	placed int64 // events placed in the calendar by schedule (read by tests)
}

// New returns a simulator with the clock at zero and no pending events.
func New() *Simulator {
	s := &Simulator{free: -1, widthLog: initialWidthLog, minCache: -1, timerAt: noTimer}
	s.buckets = make([]int32, initialBuckets)
	s.tails = make([]int32, initialBuckets)
	for i := range s.buckets {
		s.buckets[i] = -1
		s.tails[i] = -1
	}
	s.mask = int64(len(s.buckets) - 1)
	return s
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Pending returns the number of scheduled, not-yet-cancelled events, armed
// timers included.
func (s *Simulator) Pending() int { return s.calCount + int(s.armed) }

// Executed returns the total number of events executed so far. Useful for
// bounding runaway simulations in tests.
func (s *Simulator) Executed() int64 { return s.executed }

// Switches returns how many times a process has been resumed so far — woken
// for the first time, from a sleep or by a signal. Each is a switch into the
// process's coroutine and one back when it parks again.
func (s *Simulator) Switches() int64 { return s.switches }

// Reserve returns the key an event scheduled now for at would get, and
// gives its sequence number to no event: it orders after every event
// scheduled so far and before every event scheduled later. A model that
// works out in closed form what such an event would have done reserves its
// key in place of scheduling it, and asks Passed. A reservation moves no
// event's place relative to any other.
func (s *Simulator) Reserve(at Time) Key {
	s.seq++
	return Key{at, s.seq}
}

// Passed reports whether the event keyed k would already have run: whether
// k orders before the event now running, at the clock's instant.
func (s *Simulator) Passed(k Key) bool { return k.Less(Key{s.now, s.running}) }

// Elide notes an event at t that a model left out of the queue because it
// works out in closed form what the event would have done (see Reserve).
// Run still leaves the clock where that event would have: at t at least.
func (s *Simulator) Elide(t Time) { s.elided = max(s.elided, t) }

// AtCall schedules fn(arg) to run at absolute time t: the one way an event
// enters the queue. fn is a callback built once — a method value per
// component, or a package-level function — and arg a pointer to the record
// the event acts on (a packet, a frame, a pooled descriptor), so scheduling
// a hop or a firmware task creates no closure and performs zero heap
// allocations. arg should be pointer-shaped: boxing a scalar into an
// interface allocates. fn type-asserts it, so a wrong type panics rather than
// being reinterpreted. Scheduling in the past panics: it always indicates a
// modeling bug.
func (s *Simulator) AtCall(t Time, fn func(any), arg any) EventID {
	if fn == nil {
		panic("sim: nil event function")
	}
	idx := s.schedule(t)
	sl := &s.slots[idx]
	sl.fn = fn
	sl.arg = arg
	return EventID(int64(uint32(sl.gen))<<32 | int64(idx+1))
}

// At schedules fn to run at absolute time t, as AtCall(t, runFunc, fn): for
// a one-off closure (test set-up, a fault plan's scripted events). A func
// value is pointer-shaped, so wrapping it allocates nothing.
func (s *Simulator) At(t Time, fn func()) EventID {
	if fn == nil {
		panic("sim: nil event function")
	}
	return s.AtCall(t, runFunc, fn)
}

// After schedules fn to run d nanoseconds from now. Negative d panics.
func (s *Simulator) After(d Time, fn func()) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return s.At(s.now+d, fn)
}

// runFunc is At's callback: its argument is the closure to run.
func runFunc(a any) { a.(func())() }

// schedule allocates a slot for an event at time t, places it in the
// calendar, and returns the slot index. The caller fills in the callback.
func (s *Simulator) schedule(t Time) int32 {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	k := s.Reserve(t)
	var idx int32
	if s.free >= 0 {
		idx = s.free
		s.free = s.slots[idx].next
	} else {
		s.slots = append(s.slots, slot{loc: locFree})
		idx = int32(len(s.slots) - 1)
	}
	s.slots[idx].key = k
	s.place(idx)
	s.placed++
	// The min cache survives inserts that order after the cached minimum —
	// the overwhelmingly common case, since most events schedule into the
	// future. An earlier insert becomes the new minimum itself.
	if s.minCache >= 0 && k.Less(s.slots[s.minCache].key) {
		s.minCache = idx
	}
	if s.calCount > 2*len(s.buckets) {
		s.rebuild(len(s.buckets)*2, false)
	} else if s.longScans >= longScanTrigger {
		s.rebuild(len(s.buckets), false)
	}
	return idx
}

// place inserts an already-keyed slot into its day's bucket. A day a year
// or more ahead of curDay wraps onto a bucket the current year also uses.
func (s *Simulator) place(idx int32) {
	sl := &s.slots[idx]
	day := int64(sl.key.At) >> s.widthLog
	if day < s.curDay {
		// A peek advanced curDay past empty days and a later insert landed
		// behind it (legal: at >= now but below the previously found
		// minimum). Rewind so the scan revisits it.
		s.curDay = day
	}
	s.insertBucket(idx, int(day&s.mask))
	s.calCount++
}

// insertBucket links the slot into its bucket's sorted list. The scan runs
// backward from the tail: events overwhelmingly schedule at or after
// everything already in their bucket (same-time FIFO tranches, near-future
// hops), so the common case is an O(1) append. A head-first scan here is
// quadratic on the thousand-event same-timestamp tranches a large barrier
// produces.
func (s *Simulator) insertBucket(idx int32, b int) {
	sl := &s.slots[idx]
	sl.loc = int32(b)
	tail := s.tails[b]
	if tail < 0 {
		sl.prev, sl.next = -1, -1
		s.buckets[b] = idx
		s.tails[b] = idx
		return
	}
	// Find the last entry ordered before the slot's key; insert after it.
	// Ties stop immediately: an existing same-time entry always has a
	// smaller sequence number.
	k := sl.key
	cur := tail
	steps := 0
	for cur >= 0 {
		c := &s.slots[cur]
		if c.key.Less(k) {
			break
		}
		cur = c.prev
		steps++
	}
	if steps > longScanLimit {
		s.longScans++
	}
	if cur < 0 {
		// New head.
		head := s.buckets[b]
		sl.prev, sl.next = -1, head
		s.slots[head].prev = idx
		s.buckets[b] = idx
		return
	}
	nxt := s.slots[cur].next
	sl.prev, sl.next = cur, nxt
	s.slots[cur].next = idx
	if nxt >= 0 {
		s.slots[nxt].prev = idx
	} else {
		s.tails[b] = idx
	}
}

// removeBucket unlinks the slot from its bucket list.
func (s *Simulator) removeBucket(idx int32) {
	sl := &s.slots[idx]
	if sl.prev >= 0 {
		s.slots[sl.prev].next = sl.next
	} else {
		s.buckets[sl.loc] = sl.next
	}
	if sl.next >= 0 {
		s.slots[sl.next].prev = sl.prev
	} else {
		s.tails[sl.loc] = sl.prev
	}
	s.calCount--
}

// rebuild resizes the calendar to nb buckets (a power of two), re-tunes the
// bucket width, and re-places every pending event. Amortized across the
// inserts/pops that trigger it. The width comes from the observed inter-pop
// gap, or with byHorizon from the pending events' horizons (horizonWidth).
func (s *Simulator) rebuild(nb int, byHorizon bool) {
	if nb < minBuckets {
		nb = minBuckets
	}
	// Collect every calendar event into a scratch buffer reused across
	// rebuilds, so resizing stays allocation-free at steady state.
	pending := s.rebuildScratch[:0]
	for _, head := range s.buckets {
		for cur := head; cur >= 0; cur = s.slots[cur].next {
			pending = append(pending, cur)
		}
	}
	s.rebuildScratch = pending
	w := s.widthLog
	if byHorizon {
		w = s.horizonWidth(pending, nb)
	} else if s.gapEMA > 0 {
		// A few times the average inter-pop gap keeps day occupancy
		// near-constant for short-horizon distributions.
		target := s.gapEMA * 4
		w = 0
		for (int64(1)<<w) < int64(target) && w < maxWidthLog {
			w++
		}
	}
	if cap(s.buckets) >= nb {
		s.buckets = s.buckets[:nb]
		s.tails = s.tails[:nb]
	} else {
		s.buckets = make([]int32, nb)
		s.tails = make([]int32, nb)
	}
	for i := range s.buckets {
		s.buckets[i] = -1
		s.tails[i] = -1
	}
	s.mask = int64(nb - 1)
	s.widthLog = w
	s.curDay = int64(s.now) >> w
	s.calCount = 0
	s.longScans = 0
	s.overruns = 0
	s.minCache = -1
	for _, idx := range pending {
		s.place(idx)
	}
}

// horizonWidth is the narrowest bucket width (at most maxWidthLog) whose year
// of nb days spans twice the 75th-percentile horizon of the pending events
// (at least one). It answers pops that overrun the year: a gap-tuned width
// follows the inter-pop gap, which same-instant tranches drive to a
// nanosecond, and after them every event still pending may lie years ahead,
// each pop then a sweep of every bucket.
func (s *Simulator) horizonWidth(pending []int32, nb int) uint {
	h := s.horizonScratch[:0]
	for _, idx := range pending {
		h = append(h, s.slots[idx].key.At-s.now)
	}
	s.horizonScratch = h
	slices.Sort(h)
	span := 2 * int64(h[len(h)*3/4])
	w := uint(0)
	for int64(nb)<<w < span && w < maxWidthLog {
		w++
	}
	return w
}

// Cancel prevents a scheduled event from running. Cancelling an event that
// already ran, or was already cancelled, is a no-op and returns false.
func (s *Simulator) Cancel(id EventID) bool {
	idx := int32(id&0xffffffff) - 1
	if idx < 0 || int(idx) >= len(s.slots) {
		return false
	}
	sl := &s.slots[idx]
	if sl.gen != int32(uint64(id)>>32) || sl.loc == locFree {
		return false
	}
	s.removeBucket(idx)
	if s.minCache == idx {
		s.minCache = -1
	}
	s.freeSlot(idx)
	if n := len(s.buckets); s.calCount < n/4 && n > minBuckets {
		s.rebuild(n/2, false)
	}
	return true
}

// findMin locates the earliest pending event and returns its slot index,
// or -1 when none remain. It may advance curDay past empty days (safe:
// place rewinds curDay if an insert lands behind it).
func (s *Simulator) findMin() int32 {
	if s.minCache >= 0 {
		return s.minCache
	}
	if s.calCount == 0 {
		return -1
	}
	// Scan one year of days from curDay. A bucket's head belongs to the day
	// being scanned or to a later year (lists are sorted, and nothing is
	// earlier than curDay); a later-year head means the day itself is empty.
	// When the whole year is (far timers only), fall back to a direct sweep.
	nb := int64(len(s.buckets))
	for day := s.curDay; day < s.curDay+nb; day++ {
		head := s.buckets[day&s.mask]
		if head < 0 {
			continue
		}
		if int64(s.slots[head].key.At)>>s.widthLog == day {
			s.probes += day - s.curDay + 1
			s.curDay = day
			s.minCache = head
			return head
		}
	}
	// Direct search: minimum over bucket heads (each list is sorted).
	s.probes += 2 * nb
	s.sweeps++
	var best int32 = -1
	for _, head := range s.buckets {
		if head < 0 {
			continue
		}
		if best < 0 || s.slots[head].key.Less(s.slots[best].key) {
			best = head
		}
	}
	// A run of such pops means the width no longer fits the horizons: refit
	// it (best stays the minimum; only its day moves).
	if s.overruns++; s.overruns >= longScanTrigger {
		s.rebuild(len(s.buckets), true)
	}
	s.curDay = int64(s.slots[best].key.At) >> s.widthLog
	s.minCache = best
	return best
}

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It returns false when no events remain. A timer entry that
// surfaces ahead of its deadline, or disarmed, is settled on the way (see
// Timer); that is not an event.
func (s *Simulator) Step() bool {
	idx := s.findMin()
	if idx < 0 {
		return s.fireDueTimer(-1)
	}
	sl := &s.slots[idx]
	// One compare against the earliest timer key, noTimer when none is
	// queued, keeps timers off the path of a run that arms none.
	if s.timerAt <= sl.key.At && s.fireDueTimer(idx) {
		return true
	}
	if sl.key.At < s.now {
		panic("sim: time went backwards")
	}
	day := int64(sl.key.At) >> s.widthLog
	next := sl.next
	s.removeBucket(idx)
	// Same-day shortcut: the popped event's bucket successor is the global
	// minimum if it shares the day — every day maps to exactly one bucket,
	// all pending events sit at days >= the popped one, and bucket lists
	// are sorted. Consecutive same-day pops then skip the day scan.
	if next >= 0 && int64(s.slots[next].key.At)>>s.widthLog == day {
		s.curDay = day
		s.minCache = next
	} else {
		s.minCache = -1
	}
	k, fn, arg := sl.key, sl.fn, sl.arg
	s.freeSlot(idx)
	if s.begin(k) {
		runtime.Gosched()
	}
	fn(arg)
	return true
}

// begin makes the event keyed k the one running: the clock moves to its
// instant and it counts. It reports whether the loop should yield first
// (yieldEvery); the caller yields, which keeps begin small enough to inline.
func (s *Simulator) begin(k Key) bool {
	s.running = k.Seq
	// Width tuning: track the average gap between consecutive event times.
	// Zero gaps count — a workload dominated by same-time tranches needs
	// narrow buckets so a tranche has a bucket (nearly) to itself and
	// mixed-delay inserts don't share one giant sorted list. The product is
	// rounded on its own, so no target fuses it into the sum.
	s.gapEMA += float64((float64(k.At-s.lastPopAt) - s.gapEMA) * 0.05)
	s.lastPopAt = k.At
	s.now = k.At
	s.executed++
	return s.executed%yieldEvery == 0
}

// Run executes events until none remain. Processes left stranded in Await
// may lead the loop (see Proc): the clock then moves on to the latest of
// theirs, the instant the last of them ran out of things to do — where it
// would stand had each settled its charges as it went. It moves on to the
// latest elided event too (Elide).
func (s *Simulator) Run() {
	for s.Step() {
	}
	s.now = max(s.now, s.elided)
	for _, p := range s.spawned {
		if p.waitingOn != nil && p.clock > s.now {
			s.now = p.clock
		}
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// exactly t. Events scheduled at t run; later events remain pending.
func (s *Simulator) RunUntil(t Time) {
	for {
		at, ok := s.next()
		if !ok || at > t {
			break
		}
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}

// next returns the instant of the earliest pending event, a calendar
// event's or an armed timer's, and whether there is one. Timer entries that
// surface ahead of it are settled.
func (s *Simulator) next() (Time, bool) {
	idx := s.findMin()
	if t := s.dueTimer(idx); t != nil {
		return t.key.At, true
	}
	if idx < 0 {
		return 0, false
	}
	return s.slots[idx].key.At, true
}

// Stranded reports the number of processes that are parked waiting for a
// signal while no event is pending that could wake them. A nonzero value
// after Run returns indicates a lost-wakeup deadlock in the modeled system.
func (s *Simulator) Stranded() int {
	if s.Pending() > 0 {
		return 0
	}
	return int(s.blocked)
}

// LiveProcs returns the number of spawned processes that have not finished.
func (s *Simulator) LiveProcs() int { return int(s.procs) }

// freeSlot recycles a slot onto the free list and bumps its generation so
// outstanding EventIDs for it go stale. It drops the slot's callback and
// argument, so a free slot keeps nothing reachable.
func (s *Simulator) freeSlot(idx int32) {
	sl := &s.slots[idx]
	sl.fn = nil
	sl.arg = nil
	sl.loc = locFree
	sl.gen++
	sl.next = s.free
	s.free = idx
}
