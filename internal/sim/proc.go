package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated process: a coroutine (iter.Pull) that executes in
// strict lock-step with the event loop. A wake is a direct runtime switch
// into the process and a park a direct switch back, with no trip through
// the Go scheduler; at any instant either the event loop or exactly one
// process is running, so simulations that use processes remain fully
// deterministic. A panic in the body surfaces in whoever woke the process,
// i.e. in the caller of Simulator.Run.
//
// Process code interacts with simulated time only through the blocking
// methods (Sleep, Advance, Wait...). Between those calls it runs in zero
// simulated time, which models host code whose cost is accounted for
// explicitly by the caller (see package host).
type Proc struct {
	sim      *Simulator
	name     string
	next     func() (struct{}, bool) // switch into the body until it parks or returns
	yield    func(struct{}) bool     // switch back to the waker; false once stopped
	stop     func()                  // make the pending yield return false
	wake     func()                  // wakeNow as a func value, built once so Sleep allocates nothing
	finished bool

	// killed marks a process destroyed by Kill (a fail-stop host crash).
	// The coroutine stays parked until Simulator.Close releases it; every
	// wake becomes a no-op.
	killed bool
	// waitingOn / timedOn record where the process is currently parked, so
	// Kill can unhook it from the signal's waiter lists and from the
	// deadlock (Stranded) accounting. A process is in at most one timed wait
	// at a time, so that wait's state lives here and WaitTimeout allocates
	// nothing.
	waitingOn  *Signal
	timedOn    *Signal
	timer      EventID // the timed wait's timeout event
	timedFired bool    // the timed wait ended by Fire, not by the timeout
	timeout    func()  // timedOut as a func value, built once like wake
}

// procClosed is the panic value with which park unwinds a process that
// Simulator.Close has stopped, so the body's deferred calls still run. The
// spawn wrapper recovers exactly this value; a body that recovers every
// panic itself would swallow it and keep running with the simulator closed.
type procClosed struct{}

// Spawn starts a new process executing body. The body begins running at the
// current simulated time, after already-scheduled same-time events.
func (s *Simulator) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name}
	p.wake = p.wakeNow
	p.timeout = p.timedOut
	s.procs++
	s.spawned = append(s.spawned, p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil && r != (procClosed{}) {
				panic(r) // a real panic: iter.Pull re-raises it in the waker
			}
		}()
		body(p)
		p.finished = true
		s.procs--
	})
	s.After(0, p.wake)
	return p
}

// Close releases every process that never finished — killed by a fail-stop
// fault, stranded by a deadlock, or never started — so that its coroutine
// exits (running the body's deferred calls) and everything it references
// becomes collectable. Call it from the event-loop side once the run is
// over; the simulator must not be run afterwards. Close is idempotent.
func (s *Simulator) Close() {
	for _, p := range s.spawned {
		if p.finished {
			continue
		}
		p.Kill()
		p.stop() // a parked body unwinds via procClosed; an unstarted one never runs
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
// the event loop (a scheduled event), never from a process, and is
// idempotent. A finished process is left alone.
func (p *Proc) Kill() {
	if p.finished || p.killed {
		return
	}
	p.killed = true
	p.sim.procs--
	if sig := p.waitingOn; sig != nil {
		sig.waiters.remove(p)
		p.waitingOn = nil
		p.sim.blocked--
	}
	if sig := p.timedOn; sig != nil {
		sig.timed.remove(p)
		p.sim.Cancel(p.timer)
		p.timedOn = nil
		p.sim.blocked--
	}
}

// wakeNow switches from the event loop (or from a process firing a signal)
// into the process and returns when the process parks again or finishes.
func (p *Proc) wakeNow() {
	if p.killed {
		return // crashed process: wakes are dropped
	}
	if p.finished {
		panic(fmt.Sprintf("sim: waking finished process %q", p.name))
	}
	p.next()
}

// park switches back to whoever woke the process and returns at the next
// wake. It must only be called from the process body.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(procClosed{}) // released by Simulator.Close
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
	sig.waiters.add(p)
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
	sig.timed.add(p)
	p.timedOn = sig
	p.timedFired = false
	p.timer = p.sim.After(d, p.timeout)
	p.sim.blocked++
	p.park()
	p.sim.blocked--
	return p.timedFired
}

// timedOut is the timeout event of the process's timed wait. Fire and Kill
// cancel it, so when it runs the process is still waiting.
func (p *Proc) timedOut() {
	p.timedOn.timed.remove(p)
	p.timedOn = nil
	p.wakeNow()
}

// Signal is a broadcast wakeup usable by processes. Firing wakes every
// current waiter at the current simulated time; waiters that arrive later
// wait for the next Fire. FireLatched additionally remembers one firing so
// that a single future Wait returns immediately (a one-shot completion
// flag, e.g. "barrier done").
type Signal struct {
	waiters waitList // parked in Wait
	timed   waitList // parked in WaitTimeout
	latched bool
	sim     *Simulator
}

// waitList is a signal's list of parked processes, double-buffered so that
// Fire can walk one backing array while processes it wakes queue up on the
// other for the next Fire — and neither is reallocated per firing.
type waitList struct {
	procs []*Proc
	spare []*Proc // the idle buffer; nil while a Fire is walking it
}

func (l *waitList) add(p *Proc) { l.procs = append(l.procs, p) }

// take detaches the current waiters for Fire to walk and installs the idle
// buffer. A Fire nested inside that walk (a woken process firing the same
// signal) finds no idle buffer and starts a fresh one.
func (l *waitList) take() []*Proc {
	ps := l.procs
	l.procs = l.spare[:0]
	l.spare = nil
	return ps
}

// done returns a walked buffer as the idle one.
func (l *waitList) done(ps []*Proc) {
	clear(ps)
	l.spare = ps[:0]
}

// remove unhooks a killed or timed-out process.
func (l *waitList) remove(p *Proc) {
	for i, x := range l.procs {
		if x == p {
			l.procs = append(l.procs[:i], l.procs[i+1:]...)
			return
		}
	}
}

// NewSignal returns a signal bound to the simulator.
func (s *Simulator) NewSignal() *Signal { return &Signal{sim: s} }

// Fire wakes all current waiters. Each waiter resumes at the current
// simulated time, in the order they began waiting.
func (sig *Signal) Fire() {
	waiters := sig.waiters.take()
	timed := sig.timed.take()
	for _, p := range waiters {
		p.wakeNow()
	}
	for _, p := range timed {
		if p.timedOn != sig {
			continue // killed since the walk began
		}
		p.timedOn = nil
		p.timedFired = true
		sig.sim.Cancel(p.timer)
		p.wakeNow()
	}
	sig.waiters.done(waiters)
	sig.timed.done(timed)
}

// FireLatched fires the signal; if nobody is waiting, the firing is latched
// so the next single Wait returns immediately.
func (sig *Signal) FireLatched() {
	if sig.Waiting() == 0 {
		sig.latched = true
		return
	}
	sig.Fire()
}

// Waiting reports how many processes are currently parked on the signal.
func (sig *Signal) Waiting() int { return len(sig.waiters.procs) + len(sig.timed.procs) }
