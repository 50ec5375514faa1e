package sim

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

func TestSpawnRunsBody(t *testing.T) {
	s := New()
	ran := false
	s.Spawn("p", func(p *Proc) { ran = true })
	s.Run()
	if !ran {
		t.Fatal("process body did not run")
	}
	if s.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", s.LiveProcs())
	}
}

func TestProcSleepAdvancesTime(t *testing.T) {
	s := New()
	var t1, t2 Time
	s.Spawn("p", func(p *Proc) {
		t1 = p.Now()
		p.Sleep(100)
		t2 = p.Now()
	})
	s.Run()
	if t1 != 0 || t2 != 100 {
		t.Fatalf("times = %v,%v want 0,100", t1, t2)
	}
}

func TestProcSleepZeroYields(t *testing.T) {
	s := New()
	var order []string
	s.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	s.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	s.Run()
	// a runs first (spawned first), yields; b runs; then a resumes.
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcNegativeSleepPanics(t *testing.T) {
	s := New()
	var recovered bool
	s.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() != nil {
				recovered = true
			}
		}()
		p.Sleep(-5)
	})
	s.Run()
	if !recovered {
		t.Fatal("negative sleep did not panic")
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	s := New()
	var order []string
	s.Spawn("a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			order = append(order, "a")
			p.Sleep(10)
		}
	})
	s.Spawn("b", func(p *Proc) {
		for i := 0; i < 3; i++ {
			order = append(order, "b")
			p.Sleep(10)
		}
	})
	s.Run()
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(order) != len(want) {
		t.Fatalf("len = %d want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSignalWakesWaiter(t *testing.T) {
	s := New()
	sig := s.NewSignal()
	var wokenAt Time = -1
	s.Spawn("waiter", func(p *Proc) {
		wokenAt = p.Wait(sig)
	})
	s.After(500, sig.Fire)
	s.Run()
	if wokenAt != 500 {
		t.Fatalf("woken at %v, want 500", wokenAt)
	}
}

func TestSignalBroadcast(t *testing.T) {
	s := New()
	sig := s.NewSignal()
	woken := 0
	for i := 0; i < 5; i++ {
		s.Spawn("w", func(p *Proc) {
			p.Wait(sig)
			woken++
		})
	}
	s.After(10, func() {
		if sig.Waiting() != 5 {
			t.Errorf("Waiting = %d, want 5", sig.Waiting())
		}
		sig.Fire()
	})
	s.Run()
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
}

func TestStrandedDetection(t *testing.T) {
	s := New()
	sig := s.NewSignal()
	s.Spawn("w", func(p *Proc) { p.Wait(sig) })
	s.Run()
	if s.Stranded() != 1 {
		t.Fatalf("Stranded = %d, want 1", s.Stranded())
	}
	// Unstick the process so the goroutine does not leak into other tests.
	sig.Fire()
}

func TestStrandedZeroWhenEventsPending(t *testing.T) {
	s := New()
	sig := s.NewSignal()
	s.Spawn("w", func(p *Proc) { p.Wait(sig) })
	s.RunUntil(0)
	s.After(10, sig.Fire)
	if s.Stranded() != 0 {
		t.Fatalf("Stranded = %d, want 0 while wake pending", s.Stranded())
	}
	s.Run()
}

func TestProcWakingProcViaSignal(t *testing.T) {
	// A process firing a signal directly (not via the event loop) must
	// hand control to the woken process and get it back.
	s := New()
	sig := s.NewSignal()
	var order []string
	s.Spawn("waiter", func(p *Proc) {
		p.Wait(sig)
		order = append(order, "waiter-woken")
	})
	s.Spawn("firer", func(p *Proc) {
		p.Sleep(10)
		order = append(order, "fire")
		sig.Fire()
		order = append(order, "after-fire")
	})
	s.Run()
	want := []string{"fire", "waiter-woken", "after-fire"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestManyProcsBarrierStyle(t *testing.T) {
	// N processes wait on a signal fired when the last one arrives —
	// a miniature barrier implemented directly on the engine.
	s := New()
	const n = 16
	sig := s.NewSignal()
	arrived := 0
	exitTimes := make([]Time, 0, n)
	for i := 0; i < n; i++ {
		i := i
		s.Spawn("p", func(p *Proc) {
			p.Sleep(Time(i * 10)) // staggered arrival
			arrived++
			if arrived == n {
				sig.Fire()
			} else {
				p.Wait(sig)
			}
			exitTimes = append(exitTimes, p.Now())
		})
	}
	s.Run()
	if len(exitTimes) != n {
		t.Fatalf("%d exits, want %d", len(exitTimes), n)
	}
	for _, et := range exitTimes {
		if et != Time((n-1)*10) {
			t.Fatalf("exit at %v, want %v", et, Time((n-1)*10))
		}
	}
}

func TestProcName(t *testing.T) {
	s := New()
	s.Spawn("alpha", func(p *Proc) {
		if p.name != "alpha" {
			t.Errorf("Name = %q", p.name)
		}
		if p.Sim() != s {
			t.Error("Sim() mismatch")
		}
	})
	s.Run()
}

func TestFinished(t *testing.T) {
	s := New()
	p := s.Spawn("p", func(p *Proc) { p.Sleep(10) })
	s.RunUntil(5)
	if p.finished {
		t.Fatal("Finished true while sleeping")
	}
	s.Run()
	if !p.finished {
		t.Fatal("Finished false after completion")
	}
}

// TestCloseReleasesUnfinishedProcs: Close lets the goroutine of every
// process that will never run again exit — one killed while sleeping, one
// stranded on a signal, one sleeping past the point the run stopped, one
// never started — running the body's deferred calls, and leaves finished
// processes alone.
func TestCloseReleasesUnfinishedProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New()
	sig := s.NewSignal()
	unwound := 0
	body := func(block func(p *Proc)) func(p *Proc) {
		return func(p *Proc) {
			defer func() { unwound++ }()
			block(p)
			t.Error("released process resumed its body")
		}
	}
	victim := s.Spawn("killed", body(func(p *Proc) { p.Sleep(100) }))
	s.Spawn("stranded", body(func(p *Proc) { p.Wait(sig) }))
	s.Spawn("sleeper", body(func(p *Proc) { p.Sleep(1000) }))
	done := s.Spawn("done", func(p *Proc) { p.Sleep(1) })
	s.After(10, victim.Kill)
	s.RunUntil(50)
	late := s.Spawn("unstarted", func(p *Proc) { t.Error("unstarted process ran") })
	if s.LiveProcs() != 3 { // the killed one already left the accounting
		t.Fatalf("%d live processes before Close, want 3", s.LiveProcs())
	}
	s.Close()
	s.Close() // idempotent
	if unwound != 3 {
		t.Errorf("%d bodies unwound their defers, want 3", unwound)
	}
	if !done.finished || late.finished || !victim.Killed() {
		t.Errorf("finished/killed flags wrong: done=%v late=%v victim killed=%v", done.finished, late.finished, victim.Killed())
	}
	if s.LiveProcs() != 0 {
		t.Errorf("%d live processes after Close", s.LiveProcs())
	}
	for i := 0; runtime.NumGoroutine() > base && i < 1000; i++ {
		runtime.Gosched()
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Errorf("%d goroutines left after Close", got-base)
	}
}

// TestProcPanicReachesRun: a panic in a process body is re-raised in
// whoever woke the process, so it unwinds the event loop and reaches the
// caller of Run — where a service worker's recover can turn it into a
// failed job instead of a dead program.
func TestProcPanicReachesRun(t *testing.T) {
	s := New()
	unwound := false
	s.Spawn("bad", func(p *Proc) {
		defer func() { unwound = true }()
		p.Sleep(10)
		panic("boom")
	})
	bystander := s.Spawn("bystander", func(p *Proc) { p.Sleep(1000) })
	got := func() (r any) {
		defer func() { r = recover() }()
		s.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("recover around Run = %v, want boom", got)
	}
	if !unwound || s.Now() != 10 {
		t.Errorf("unwound=%v now=%v, want true, 10", unwound, s.Now())
	}
	s.Close() // the other process is still parked; Close must cope
	if bystander.finished || !bystander.Killed() {
		t.Errorf("bystander finished=%v killed=%v after Close", bystander.finished, bystander.Killed())
	}
}

// TestProcPanicThroughNestedWake: a process woken from inside another
// process's Fire panics; the panic unwinds the firing process too.
func TestProcPanicThroughNestedWake(t *testing.T) {
	s := New()
	sig := s.NewSignal()
	firerUnwound := false
	s.Spawn("waiter", func(p *Proc) {
		p.Wait(sig)
		panic("nested")
	})
	s.Spawn("firer", func(p *Proc) {
		defer func() { firerUnwound = true }()
		p.Sleep(5)
		sig.Fire()
		t.Error("firer continued past a panicking wake")
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		s.Run()
		return nil
	}()
	if got != "nested" || !firerUnwound {
		t.Fatalf("recover = %v, firer unwound = %v", got, firerUnwound)
	}
	s.Close()
}

// TestCloseBeforeFirstWake: a process that never got its first wake never
// runs, not even to unwind.
func TestCloseBeforeFirstWake(t *testing.T) {
	s := New()
	p := s.Spawn("unstarted", func(p *Proc) { t.Error("body ran") })
	s.Close()
	if p.finished || !p.Killed() || s.LiveProcs() != 0 {
		t.Errorf("finished=%v killed=%v live=%d", p.finished, p.Killed(), s.LiveProcs())
	}
}

// TestCloseUnwindsEachParkOnce: whichever blocking call a process is parked
// in, Close runs its deferred calls exactly once and the body does not
// continue.
func TestCloseUnwindsEachParkOnce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		block func(p *Proc, sig *Signal)
	}{
		{"Sleep", func(p *Proc, _ *Signal) { p.Sleep(1000) }},
		{"Wait", func(p *Proc, sig *Signal) { p.Wait(sig) }},
	} {
		s := New()
		sig := s.NewSignal()
		unwound := 0
		s.Spawn(tc.name, func(p *Proc) {
			defer func() { unwound++ }()
			tc.block(p, sig)
			t.Errorf("%s: body continued after Close", tc.name)
		})
		s.RunUntil(10)
		s.Close()
		s.Close()
		if unwound != 1 {
			t.Errorf("%s: deferred calls ran %d times, want 1", tc.name, unwound)
		}
		if s.LiveProcs() != 0 || s.Stranded() != 0 || sig.Waiting() != 0 {
			t.Errorf("%s: live=%d stranded=%d waiting=%d after Close", tc.name, s.LiveProcs(), s.Stranded(), sig.Waiting())
		}
	}
}

// TestKillThenClose: a killed process ignores wakes and still unwinds, once,
// at Close.
func TestKillThenClose(t *testing.T) {
	s := New()
	unwound := 0
	p := s.Spawn("victim", func(p *Proc) {
		defer func() { unwound++ }()
		p.Sleep(100)
		t.Error("killed process resumed")
	})
	s.After(10, p.Kill)
	s.Run() // the sleep's wake at t=100 is dropped
	if unwound != 0 || !p.Killed() {
		t.Fatalf("before Close: unwound=%d killed=%v", unwound, p.Killed())
	}
	s.Close()
	if unwound != 1 {
		t.Errorf("deferred calls ran %d times, want 1", unwound)
	}
}

func TestWakingFinishedProcPanicsWithName(t *testing.T) {
	s := New()
	p := s.Spawn("short-lived", func(p *Proc) {})
	s.Run()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `"short-lived"`) {
			t.Errorf("panic = %q, want the process name in it", msg)
		}
	}()
	p.wakeNow()
}

// TestSignalRewaitAndRefireInsideFire: the waiter list is double-buffered;
// a process that waits again, or fires the same signal, from inside Fire's
// walk must land in the next round, not the current one.
func TestSignalRewaitAndRefireInsideFire(t *testing.T) {
	s := New()
	sig := s.NewSignal()
	var order []string
	s.Spawn("rewaiter", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Wait(sig)
			order = append(order, "rewaiter")
		}
	})
	s.Spawn("refirer", func(p *Proc) {
		p.Wait(sig)
		order = append(order, "refirer")
		sig.Fire() // wakes the rewaiter's second wait, nested in the outer walk
		order = append(order, "refirer-done")
	})
	s.Spawn("last", func(p *Proc) {
		p.Wait(sig)
		order = append(order, "last")
	})
	s.After(10, sig.Fire)
	s.After(20, sig.Fire)
	s.Run()
	want := "rewaiter refirer rewaiter refirer-done last rewaiter"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
	if s.Stranded() != 0 || s.LiveProcs() != 0 {
		t.Fatalf("stranded=%d live=%d", s.Stranded(), s.LiveProcs())
	}
}

// TestWaitAllocatesNothing: at steady state Wait/Fire does not touch the
// allocator.
func TestWaitAllocatesNothing(t *testing.T) {
	s := New()
	sig := s.NewSignal()
	s.Spawn("waiter", func(p *Proc) {
		for {
			p.Wait(sig)
		}
	})
	fire := sig.Fire
	round := func() {
		s.After(1, fire)
		s.After(2, fire)
		s.Run()
	}
	round()
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Errorf("Wait/Fire round allocates %.2f, want 0", avg)
	}
	s.Close()
}

// TestProcAndSignalSizes pins the two engine objects every simulated rank
// allocates to their size classes: a Proc holds its coroutine, its clock and
// the one signal it is parked on; a Signal holds its waiter list.
func TestProcAndSignalSizes(t *testing.T) {
	if got := unsafe.Sizeof(Proc{}); got > 96 {
		t.Errorf("Proc is %d bytes, want ≤ 96", got)
	}
	if got := unsafe.Sizeof(Signal{}); got > 64 {
		t.Errorf("Signal is %d bytes, want ≤ 64", got)
	}
}

// TestSpawnRunCloseLeaksNothing: ten thousand simulator lifetimes, each
// leaving one process finished, one stranded and one asleep, leave the
// goroutine count and the live heap where they started.
func TestSpawnRunCloseLeaksNothing(t *testing.T) {
	cycle := func() {
		s := New()
		sig := s.NewSignal()
		s.Spawn("done", func(p *Proc) { p.Sleep(1) })
		s.Spawn("stranded", func(p *Proc) { p.Wait(sig) })
		s.Spawn("asleep", func(p *Proc) { p.Sleep(1000) })
		s.RunUntil(10)
		s.Close()
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	goroutines, before := runtime.NumGoroutine(), heap()
	for i := 0; i < 10000; i++ {
		cycle()
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Errorf("%d goroutines after 10000 cycles, %d before", got, goroutines)
	}
	if after := heap(); after > before+256<<10 {
		t.Errorf("live heap grew from %d to %d bytes over 10000 cycles", before, after)
	}
}
