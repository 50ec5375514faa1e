package sim

import (
	"fmt"
	"runtime"
)

// Proc is a simulated process: a goroutine that executes in strict lock-step
// with the event loop. At any instant at most one goroutine in the whole
// simulation is runnable — either the event loop or exactly one process —
// so simulations that use processes remain fully deterministic.
//
// Process code interacts with simulated time only through the blocking
// methods (Sleep, Advance, Wait...). Between those calls it runs in zero
// simulated time, which models host code whose cost is accounted for
// explicitly by the caller (see package host).
type Proc struct {
	sim      *Simulator
	name     string
	resume   chan struct{}
	parked   chan struct{}
	wake     func() // wakeNow as a func value, built once so Sleep allocates nothing
	finished bool

	// killed marks a process destroyed by Kill (a fail-stop host crash).
	// The goroutine stays parked until Simulator.Close releases it; every
	// wake becomes a no-op.
	killed bool
	// waitingOn / timedW record where the process is currently parked, so
	// Kill can unhook it from the signal's waiter lists and from the
	// deadlock (Stranded) accounting.
	waitingOn *Signal
	timedW    *timedWaiter
}

// Spawn starts a new process executing body. The body begins running at the
// current simulated time, after already-scheduled same-time events.
func (s *Simulator) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{
		sim:    s,
		name:   name,
		resume: make(chan struct{}),
		parked: make(chan struct{}),
	}
	p.wake = p.wakeNow
	s.procs++
	s.spawned = append(s.spawned, p)
	go func() {
		// Deferred so the hand-back also happens when Close unwinds the
		// body with Goexit.
		defer func() { p.parked <- struct{}{} }()
		if _, ok := <-p.resume; !ok {
			return // closed before the first wake
		}
		body(p)
		p.finished = true
		s.procs--
	}()
	s.After(0, p.wake)
	return p
}

// Close releases every process that never finished — killed by a fail-stop
// fault, stranded by a deadlock, or never started — so that its goroutine
// exits (running the body's deferred calls) and everything it references
// becomes collectable. Call it from the event-loop side once the run is
// over; the simulator must not be run afterwards. Close is idempotent.
func (s *Simulator) Close() {
	for _, p := range s.spawned {
		if p.finished {
			continue
		}
		p.Kill()
		close(p.resume)
		<-p.parked
	}
	s.spawned = nil
}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Sim returns the simulator this process runs on.
func (p *Proc) Sim() *Simulator { return p.sim }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.sim.Now() }

// Finished reports whether the process body has returned.
func (p *Proc) Finished() bool { return p.finished }

// Killed reports whether the process was destroyed by Kill.
func (p *Proc) Killed() bool { return p.killed }

// Kill destroys a parked process: the modeled host has crashed (fail-stop)
// and will never run again. The process leaves the live-process and
// deadlock accounting, any signal wait is unhooked, and every future wake
// (a pending sleep, a later Fire) becomes a no-op. Kill must be called from
// the event loop (a scheduled event), never from a process goroutine, and
// is idempotent. A finished process is left alone.
func (p *Proc) Kill() {
	if p.finished || p.killed {
		return
	}
	p.killed = true
	p.sim.procs--
	if sig := p.waitingOn; sig != nil {
		sig.removeWaiter(p)
		p.waitingOn = nil
		p.sim.blocked--
	}
	if w := p.timedW; w != nil && !w.done {
		w.done = true
		p.sim.Cancel(w.timer)
		p.timedW = nil
		p.sim.blocked--
	}
}

// wakeNow transfers control from the event loop to the process goroutine and
// blocks until the process parks again (or finishes). It must only be called
// from the event loop.
func (p *Proc) wakeNow() {
	if p.killed {
		return // crashed process: wakes are dropped
	}
	if p.finished {
		panic(fmt.Sprintf("sim: waking finished process %q", p.name))
	}
	p.resume <- struct{}{}
	<-p.parked
}

// park returns control to the event loop and blocks until the next wake.
// It must only be called from the process goroutine.
func (p *Proc) park() {
	p.parked <- struct{}{}
	if _, ok := <-p.resume; !ok {
		runtime.Goexit() // released by Simulator.Close
	}
}

// Sleep suspends the process for d nanoseconds of simulated time.
// Sleep(0) yields: other events scheduled at the current instant run first.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: process %q sleeping negative duration %d", p.name, d))
	}
	p.sim.After(d, p.wake)
	p.park()
}

// Advance is Sleep under a name that reads as "consume this much CPU time".
// Host models use it to charge per-operation costs.
func (p *Proc) Advance(d Time) { p.Sleep(d) }

// Wait parks the process until the signal fires. If the signal has already
// been fired in "latched" mode, Wait returns immediately (consuming the
// latch). The return value is the simulated time at which the process was
// woken.
func (p *Proc) Wait(sig *Signal) Time {
	if sig.latched {
		sig.latched = false
		return p.sim.Now()
	}
	sig.waiters = append(sig.waiters, p)
	p.waitingOn = sig
	p.sim.blocked++
	p.park()
	p.waitingOn = nil
	p.sim.blocked--
	return p.sim.Now()
}

// WaitTimeout parks the process until the signal fires or d elapses.
// It reports whether the signal fired (true) or the wait timed out (false).
func (p *Proc) WaitTimeout(sig *Signal, d Time) bool {
	if sig.latched {
		sig.latched = false
		return true
	}
	fired := false
	w := &timedWaiter{p: p}
	sig.timedWaiters = append(sig.timedWaiters, w)
	w.timer = p.sim.After(d, func() {
		if w.done {
			return
		}
		w.done = true
		sig.removeTimed(w)
		p.wakeNow()
	})
	p.timedW = w
	p.sim.blocked++
	w.onFire = func() { fired = true }
	p.park()
	p.timedW = nil
	p.sim.blocked--
	return fired
}

// Signal is a broadcast wakeup usable by processes. Firing wakes every
// current waiter at the current simulated time; waiters that arrive later
// wait for the next Fire. FireLatched additionally remembers one firing so
// that a single future Wait returns immediately (a one-shot completion
// flag, e.g. "barrier done").
type Signal struct {
	waiters      []*Proc
	timedWaiters []*timedWaiter
	latched      bool
	sim          *Simulator
}

type timedWaiter struct {
	p      *Proc
	timer  EventID
	done   bool
	onFire func()
}

// NewSignal returns a signal bound to the simulator.
func (s *Simulator) NewSignal() *Signal { return &Signal{sim: s} }

// Fire wakes all current waiters. Each waiter resumes at the current
// simulated time, in the order they began waiting.
func (sig *Signal) Fire() {
	waiters := sig.waiters
	sig.waiters = nil
	timed := sig.timedWaiters
	sig.timedWaiters = nil
	for _, p := range waiters {
		p.wakeNow()
	}
	for _, w := range timed {
		if w.done {
			continue
		}
		w.done = true
		sig.sim.Cancel(w.timer)
		if w.onFire != nil {
			w.onFire()
		}
		w.p.wakeNow()
	}
}

// FireLatched fires the signal; if nobody is waiting, the firing is latched
// so the next single Wait returns immediately.
func (sig *Signal) FireLatched() {
	if len(sig.waiters) == 0 && len(sig.timedWaiters) == 0 {
		sig.latched = true
		return
	}
	sig.Fire()
}

// Waiting reports how many processes are currently parked on the signal.
func (sig *Signal) Waiting() int { return len(sig.waiters) + len(sig.timedWaiters) }

// removeWaiter unhooks a killed process from the plain waiter list.
func (sig *Signal) removeWaiter(p *Proc) {
	for i, x := range sig.waiters {
		if x == p {
			sig.waiters = append(sig.waiters[:i], sig.waiters[i+1:]...)
			return
		}
	}
}

func (sig *Signal) removeTimed(w *timedWaiter) {
	for i, x := range sig.timedWaiters {
		if x == w {
			sig.timedWaiters = append(sig.timedWaiters[:i], sig.timedWaiters[i+1:]...)
			return
		}
	}
}
