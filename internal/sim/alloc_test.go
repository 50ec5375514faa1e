package sim

import (
	"iter"
	"testing"
	"unsafe"
)

// TestZeroAllocSchedulePopDeliver pins the engine's core contract: once
// the calendar's slot pool and bucket arrays have warmed up, the
// schedule→pop→deliver path allocates nothing — in all three scheduling
// forms: AtCall with a prebuilt callback, each event acting on a pointer
// argument as the fabric and firmware events do, and the closure wrappers
// At and After with a long-lived func.
func TestZeroAllocSchedulePopDeliver(t *testing.T) {
	s := New()
	var recs [64]int // the records the events act on
	sum := 0
	afn := func(a any) { sum += *a.(*int) }
	var now Time
	// Warm-up: grow the slot pool and settle the bucket width.
	for i := 0; i < 4096; i++ {
		now += Time(i%7) * 100
		s.AtCall(now+Time(i%13), afn, &recs[i%len(recs)])
	}
	s.Run()
	for i := range recs {
		recs[i] = i + 1
	}
	// The closure forms' funcs are built once, like a component's method
	// values: each calls afn on its record.
	var fns [len(recs)]func()
	for i := range fns {
		r := &recs[i]
		fns[i] = func() { afn(r) }
	}

	for _, form := range []struct {
		name     string
		schedule func(d Time, i int)
	}{
		{"At", func(d Time, i int) { s.At(s.Now()+d, fns[i]) }},
		{"After", func(d Time, i int) { s.After(d, fns[i]) }},
		{"AtCall", func(d Time, i int) { s.AtCall(s.Now()+d, afn, &recs[i]) }},
	} {
		sum = 0
		if avg := testing.AllocsPerRun(200, func() {
			for i := range recs {
				form.schedule(Time(i%9)*50, i)
			}
			s.Run()
		}); avg != 0 {
			t.Errorf("schedule→pop→deliver (%s) allocates %.2f per run, want 0", form.name, avg)
		}
		// AllocsPerRun makes one warm-up run before the 200 it counts.
		if want := 201 * len(recs) * (len(recs) + 1) / 2; sum != want {
			t.Errorf("%s: the events' arguments summed to %d, want %d", form.name, sum, want)
		}
	}
}

// TestZeroAllocCancel pins that Cancel is allocation-free at steady state,
// for events near the clock and for timers far ahead of it.
func TestZeroAllocCancel(t *testing.T) {
	s := New()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		s.At(Time(i), fn)
	}
	s.Run()
	ids := make([]EventID, 64)
	if avg := testing.AllocsPerRun(200, func() {
		base := s.Now()
		for i := range ids {
			ids[i] = s.At(base+Time(i%17)*30+1, fn)
		}
		for _, id := range ids {
			if !s.Cancel(id) {
				t.Fatal("cancel failed")
			}
		}
	}); avg != 0 {
		t.Errorf("schedule+Cancel allocates %.2f per run, want 0", avg)
	}

	// The retransmit-timer pattern of reliable mode: every send arms a timer
	// 1–16 ms out, many calendar years past the near events around it, and
	// the ACK cancels it long before it fires.
	if avg := testing.AllocsPerRun(200, func() {
		base := s.Now()
		for i := range ids {
			s.At(base+Time(i%9)*50, fn)
			ids[i] = s.At(base+Time(1+i%16)*Millisecond, fn)
		}
		s.RunUntil(base + 500)
		for _, id := range ids {
			if !s.Cancel(id) {
				t.Fatal("cancel of a far timer failed")
			}
		}
	}); avg != 0 {
		t.Errorf("far-timer schedule+Cancel allocates %.2f per run, want 0", avg)
	}
	if s.Pending() != 0 {
		t.Errorf("%d events pending after every timer was cancelled", s.Pending())
	}
	s.Run()
}

// TestZeroAllocLead pins that a process leading the loop pays nothing to the
// allocator for it: Advance, an event at the process's clock, Await (a re-wait
// inside the Fire that woke it included) and the Sync that settles the lead.
func TestZeroAllocLead(t *testing.T) {
	s := New()
	sig := s.NewSignal()
	inbox, rang := 0, 0
	ring := func() { rang++ }
	s.Spawn("ahead", func(p *Proc) {
		for {
			p.Advance(30)
			p.Sim().At(p.Now()+5, ring)
			for inbox == 0 {
				p.Await(sig) // woken at 10 with 20 of its lead left, and again at 11
			}
			inbox--
			p.Advance(40)
			p.Sim().At(p.Now(), ring)
			p.Sync()
		}
	})
	arrive := func() { inbox++; sig.Fire() }
	fire := sig.Fire
	round := func() {
		s.After(10, fire) // nothing arrived: the process waits again inside this Fire
		s.After(11, arrive)
		s.Run()
	}
	round()
	round()
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Errorf("Advance/After/Await/Sync round allocates %.2f, want 0", avg)
	}
	if rang == 0 {
		t.Fatal("After callbacks did not run")
	}
	s.Close()
}

// TestWaitListOneAllocation: a signal with one waiter allocates once in its
// life, however the waits fall — also when the waiter queues up again inside
// the Fire that is still walking the buffer it was on (Await in a loop),
// which needs the second buffer at once.
func TestWaitListOneAllocation(t *testing.T) {
	p := new(Proc)
	if avg := testing.AllocsPerRun(100, func() {
		var l waitList
		for i := 0; i < 4; i++ {
			l.add(p)
			walked := l.take()
			if i%2 == 0 {
				l.add(p) // inside the walk
				l.done(walked)
				l.done(l.take())
			} else {
				l.done(walked)
			}
		}
	}); avg != 1 {
		t.Errorf("a one-waiter list allocated %.2f times, want 1", avg)
	}
}

// TestSlotSize pins the calendar's event slot, which every pending event
// occupies, to 56 bytes: its key, the callback and its argument, the bucket
// links, generation and bucket. Padded to a 64-byte cache line it read no
// faster overall: 1.4–1.8 % quicker on host16 and 0.1–2.6 % slower on
// nic16 (EXPERIMENTS.md, "One callback form"). The Simulator, which every
// run allocates, stays in the 384-byte size class.
func TestSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got > 56 {
		t.Errorf("slot is %d bytes, want ≤ 56", got)
	}
	if got := unsafe.Sizeof(Simulator{}); got > 384 {
		t.Errorf("Simulator is %d bytes, want ≤ 384", got)
	}
}

// TestBlockStartAllocatesOnlyCoroutines: starting n processes whose cells
// are one block, each with a package-level body that finds its cell through
// its argument, costs no heap object per process beyond what iter.Pull
// allocates for the coroutine; Spawn, the one-cell case, costs its cell on
// top. The floor is measured here, a coroutine run to its end, so the bound
// follows the toolchain. The block, the simulator's list of processes and
// its event slots grow in O(log n) steps, which the slope between two block
// sizes leaves out. Before a process was started on its cell, Spawn cost two
// objects on top: its Proc and the closure its coroutine ran.
func TestBlockStartAllocatesOnlyCoroutines(t *testing.T) {
	seq := func(yield func(struct{}) bool) { yield(struct{}{}) }
	floor := testing.AllocsPerRun(100, func() {
		next, stop := iter.Pull(seq)
		next()
		next()
		stop()
	})
	type cell struct {
		p     Proc
		woken int
	}
	body := func(a any) {
		c := a.(*cell)
		c.p.Sleep(1)
		c.woken++
	}
	block := func(n int) func() {
		return func() {
			s := New()
			cells := make([]cell, n)
			for i := range cells {
				s.Start(&cells[i].p, body, &cells[i])
			}
			s.Run()
			if cells[n-1].woken != 1 {
				t.Fatalf("the last process ran %d times, want 1", cells[n-1].woken)
			}
		}
	}
	spawn := func(n int) func() {
		return func() {
			s := New()
			for i := 0; i < n; i++ {
				s.Spawn("p", func(p *Proc) { p.Sleep(1) })
			}
			s.Run()
		}
	}
	const lo, hi = 64, 1024
	slope := func(run func(int) func()) float64 {
		a, b := testing.AllocsPerRun(10, run(lo)), testing.AllocsPerRun(10, run(hi))
		return (b - a) / (hi - lo)
	}
	perBlock, perSpawn := slope(block), slope(spawn)
	t.Logf("iter.Pull: %.2f objects a coroutine; a process in a block %.3f, a spawned one %.3f", floor, perBlock, perSpawn)
	if perBlock > floor+0.05 {
		t.Errorf("a process started in a block costs %.3f objects, iter.Pull alone %.2f", perBlock, floor)
	}
	if perSpawn > floor+1.05 {
		t.Errorf("a spawned process costs %.3f objects, iter.Pull and its cell %.2f", perSpawn, floor+1)
	}
}
