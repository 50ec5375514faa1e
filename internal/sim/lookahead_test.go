package sim

import (
	"slices"
	"testing"
)

// TestAdvanceLeadsTheLoop: Advance moves the process's clock without parking;
// Now, events scheduled at it and Sleep go by that clock; Sync, Sleep and the end of the body
// bring the loop level with it.
func TestAdvanceLeadsTheLoop(t *testing.T) {
	s := New()
	var rang []Time
	ring := func() { rang = append(rang, s.Now()) }
	p := s.Spawn("p", func(p *Proc) {
		p.Advance(30)
		p.Advance(0)
		if p.Now() != 30 || s.Now() != 0 || s.Switches() != 1 {
			t.Errorf("after Advance(30): clock %v, loop %v, %d resumes; want 30, 0, 1", p.Now(), s.Now(), s.Switches())
		}
		s.At(p.Now()+5, ring) // at 35
		p.Advance(10)
		s.At(p.Now(), ring) // at 40
		p.Sync()
		if p.Now() != 40 || s.Now() != 40 || s.Switches() != 2 {
			t.Errorf("after Sync: clock %v, loop %v, %d resumes; want 40, 40, 2", p.Now(), s.Now(), s.Switches())
		}
		p.Sync() // level: no park
		if s.Switches() != 2 {
			t.Errorf("Sync on a level process parked")
		}
		p.Advance(7)
		p.Sleep(3) // one park for the lead and the sleep
		if p.Now() != 50 || s.Now() != 50 || s.Switches() != 3 {
			t.Errorf("after Advance(7), Sleep(3): clock %v, loop %v, %d resumes; want 50, 50, 3", p.Now(), s.Now(), s.Switches())
		}
		p.Advance(25)
	})
	s.RunUntil(60)
	if p.finished || s.LiveProcs() != 1 {
		t.Errorf("at 60 the body has returned but its last charge runs to 75: finished=%v live=%d", p.finished, s.LiveProcs())
	}
	s.Run()
	if !p.finished || s.Now() != 75 {
		t.Errorf("finished=%v at %v, want true at 75", p.finished, s.Now())
	}
	if !slices.Equal(rang, []Time{35, 40}) {
		t.Errorf("events at the process's clock ran at %v, want [35 40]", rang)
	}
}

func TestNegativeAdvanceAndAfterPanic(t *testing.T) {
	for name, call := range map[string]func(p *Proc){
		"Advance": func(p *Proc) { p.Advance(-1) },
		"After":   func(p *Proc) { p.Sim().After(-1, func() {}) },
	} {
		s := New()
		recovered := false
		s.Spawn(name, func(p *Proc) {
			defer func() { recovered = recover() != nil }()
			p.Advance(10) // a lead does not excuse a negative argument
			call(p)
		})
		s.Run()
		if !recovered {
			t.Errorf("%s(-1) did not panic", name)
		}
	}
}

// TestWaitSettlesAwaitDoesNot: a signal is an edge, so Wait must not be on
// the list before the process's own clock says so — a Fire inside the lead is
// not for it — while Await, the wait for a level, takes any Fire and keeps
// the later of the two clocks.
func TestWaitSettlesAwaitDoesNot(t *testing.T) {
	s := New()
	sig := s.NewSignal()
	var waitedTill, awaitedEarly, awaitedLate Time
	s.Spawn("waiter", func(p *Proc) {
		p.Advance(100)
		waitedTill = p.Wait(sig) // misses the Fire at 50
	})
	s.Spawn("awaiter", func(p *Proc) {
		p.Advance(100)
		p.Await(sig) // woken at 50, still charged up to 100
		awaitedEarly = p.Now()
		if s.Now() != 50 {
			t.Errorf("Await resumed at loop time %v, want 50", s.Now())
		}
		p.Await(sig) // woken at 150, past its clock
		awaitedLate = p.Now()
	})
	s.At(50, sig.Fire)
	s.At(150, sig.Fire)
	s.Run()
	if waitedTill != 150 || awaitedEarly != 100 || awaitedLate != 150 {
		t.Errorf("Wait returned at %v, Await at %v then %v; want 150, 100, 150", waitedTill, awaitedEarly, awaitedLate)
	}
}

// TestDryRunCatchesUpWithStrandedClocks: a process stranded in Await with a
// lead has nothing scheduled, so a Run that ran dry would stop the clock
// short of where a run that settles every charge stops it — and a deadlock
// would be reported at the wrong instant.
func TestDryRunCatchesUpWithStrandedClocks(t *testing.T) {
	for _, settle := range []bool{false, true} {
		s := New()
		sig := s.NewSignal()
		for _, charge := range []Time{40, 90, 10} {
			s.Spawn("stranded", func(p *Proc) {
				p.Sleep(5)
				p.Advance(charge)
				if settle {
					p.Sync()
				}
				p.Await(sig)
			})
		}
		killed := s.Spawn("killed", func(p *Proc) {
			p.Advance(500) // dies with its lead
			p.Await(sig)
		})
		s.At(20, killed.Kill)
		s.Run()
		if s.Now() != 95 || s.Stranded() != 3 {
			t.Errorf("settle=%v: dry at %v with %d stranded, want 95 and 3", settle, s.Now(), s.Stranded())
		}
		s.Close()
	}
}

// TestKillWhileAwaitingWithLead: a process killed while parked in Await
// leaves the signal's list and the deadlock accounting as one parked in Wait
// does, later Fires pass it by, and KilledBy tells an After callback whether
// the process lived to make the call.
func TestKillWhileAwaitingWithLead(t *testing.T) {
	s := New()
	sig := s.NewSignal()
	var rang []Time
	var victim *Proc
	call := func(at Time) func() {
		return func() {
			if !victim.KilledBy(at) {
				rang = append(rang, at)
			}
		}
	}
	victim = s.Spawn("victim", func(p *Proc) {
		p.Sleep(10)
		for _, d := range []Time{10, 10, 10} { // calls at 20, 30, 40 on its clock
			p.Advance(d)
			p.Sim().At(p.Now()+5, call(p.Now()))
		}
		p.Await(sig)
		t.Error("killed process resumed")
	})
	bystander := s.Spawn("bystander", func(p *Proc) { p.Wait(sig) })
	s.At(30, victim.Kill) // scheduled before the victim was charged: the call at 30 is not made
	s.RunUntil(29)
	if sig.Waiting() != 2 {
		t.Fatalf("%d waiters before the kill, want 2", sig.Waiting())
	}
	s.Run()
	if sig.Waiting() != 1 || s.Stranded() != 1 || s.LiveProcs() != 1 {
		t.Errorf("after the kill: waiting=%d stranded=%d live=%d, want 1, 1, 1", sig.Waiting(), s.Stranded(), s.LiveProcs())
	}
	if !slices.Equal(rang, []Time{20}) {
		t.Errorf("calls made at %v, want only the one at 20", rang)
	}
	if victim.KilledBy(29) || !victim.KilledBy(30) || bystander.KilledBy(1000) {
		t.Errorf("KilledBy: victim by 29 %v, by 30 %v; bystander %v", victim.KilledBy(29), victim.KilledBy(30), bystander.KilledBy(1000))
	}
	resumes := s.Switches()
	sig.Fire()
	sig.Fire()
	if s.Switches() != resumes+1 || !bystander.finished || s.Stranded() != 0 {
		t.Errorf("Fire after the kill: %d resumes (want 1), bystander finished=%v, stranded=%d",
			s.Switches()-resumes, bystander.finished, s.Stranded())
	}
	s.Close()
}
