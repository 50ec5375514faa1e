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
// Process code interacts with simulated time only through the methods below
// (Sleep, Advance, Wait...). Between those calls it runs in zero simulated
// time, which models host code whose cost is accounted for explicitly by the
// caller (see package host).
//
// A process keeps a clock of its own, which may lead the event loop's:
// Advance charges the process CPU time by moving that clock and returns
// without parking, Now reads it, and the process schedules on it (an event
// at Now()+d acts at the instant a settled process would have), so a process
// that is charged a fixed sum between two interactions with the rest of the
// simulation pays for it with one park instead of one per term. The lead is
// settled — the process sleeps until the loop has caught up — by Sync, Sleep
// and Wait, and when the body returns. Two rules keep a run with leads
// indistinguishable from one that settles every charge at once:
//
//   - Whatever else the process does to the simulation — firing a signal,
//     writing a variable another process or the caller of Run reads, calling
//     into a model directly instead of through an event at its clock — it
//     does after Sync.
//   - It looks at state the event loop writes only after Sync, unless the
//     state is a level that stays set once set and that only this process
//     resets (a queue it alone consumes): what is there at loop time T is
//     there at T + lead, and what is not is re-checked after Await.
//
// An event scheduled at the process's clock while it leads carries an earlier
// sequence number than the one a settled run schedules later, so it can swap
// places with an unrelated event of the very same nanosecond.
type Proc struct {
	sim   *Simulator
	name  string
	next  func() (struct{}, bool) // switch into the body until it parks or returns
	yield func(struct{}) bool     // switch back to the waker; false once stopped
	stop  func()                  // make the pending yield return false

	finished bool
	// killed marks a process destroyed by Kill (a fail-stop host crash).
	// The coroutine stays parked until Simulator.Close releases it; every
	// wake becomes a no-op.
	killed bool

	// clock is the process's own clock whenever it is later than the
	// loop's: the instant up to which the process has been charged CPU time.
	clock    Time
	killedAt Time // when Kill ran

	// waitingOn records where the process is currently parked, so Kill can
	// unhook it from the signal's waiter list and from the deadlock
	// (Stranded) accounting.
	waitingOn *Signal
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
		p.Sync() // the process is done when its last charge has elapsed
		p.finished = true
		s.procs--
	})
	s.AtCall(s.now, wakeProc, p)
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

// Sim returns the simulator this process runs on.
func (p *Proc) Sim() *Simulator { return p.sim }

// Now returns the current simulated time on the process's clock: the loop's
// time plus whatever the process has been charged and not yet waited out.
func (p *Proc) Now() Time {
	if p.clock > p.sim.now {
		return p.clock
	}
	return p.sim.now
}

// Killed reports whether the process was destroyed by Kill.
func (p *Proc) Killed() bool { return p.killed }

// KilledBy reports whether the process was dead at instant t of its own
// clock. Kill does not take back what a process scheduled at its clock while
// it led the loop, so the callback of a call made at t asks this first: a
// process killed before its clock reached t never made the call. A kill at t
// itself counts — it was scheduled before the process was charged up to t, as
// a fault plan's crashes are, so a settled run orders it first.
func (p *Proc) KilledBy(t Time) bool { return p.killed && p.killedAt <= t }

// Kill destroys a parked process: the modeled host has crashed (fail-stop)
// and will never run again. The process leaves the live-process and
// deadlock accounting, any signal wait is unhooked, and every future wake
// (a pending sleep, a later Fire) becomes a no-op. What the process scheduled
// at its clock while it led the loop stays scheduled (see KilledBy). Kill must
// be called from the event loop (a scheduled event), never from a process,
// and is idempotent. A finished process is left alone.
func (p *Proc) Kill() {
	if p.finished || p.killed {
		return
	}
	p.killed, p.killedAt = true, p.sim.now
	p.sim.procs--
	if sig := p.waitingOn; sig != nil {
		sig.waiters.remove(p)
		p.waitingOn = nil
		p.sim.blocked--
	}
}

// wakeProc is the event that wakes a process, its argument.
func wakeProc(a any) { a.(*Proc).wakeNow() }

// wakeNow switches from the event loop (or from a process firing a signal)
// into the process and returns when the process parks again or finishes.
func (p *Proc) wakeNow() {
	if p.killed {
		return // crashed process: wakes are dropped
	}
	if p.finished {
		panic(fmt.Sprintf("sim: waking finished process %q", p.name))
	}
	p.sim.switches++
	p.next()
}

// park switches back to whoever woke the process and returns at the next
// wake. It must only be called from the process body.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(procClosed{}) // released by Simulator.Close
	}
}

// Sleep suspends the process for d nanoseconds of simulated time on its own
// clock, and returns level with the loop: it always parks, for its lead plus
// d. Sleep(0) yields: other events scheduled at that instant run first.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: process %q sleeping negative duration %d", p.name, d))
	}
	p.sim.AtCall(p.Now()+d, wakeProc, p)
	p.park()
}

// Advance consumes d nanoseconds of CPU time: the process's clock moves on
// and the process keeps running, ahead of the loop (see Proc). Host models
// use it to charge per-operation costs.
func (p *Proc) Advance(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: process %q advancing negative duration %d", p.name, d))
	}
	p.clock = p.Now() + d
}

// Sync settles the lead: the process sleeps until the loop has caught up with
// its clock. Level with the loop already, it returns without parking.
func (p *Proc) Sync() {
	if p.clock > p.sim.now {
		p.Sleep(0)
	}
}

// Wait parks the process until the signal fires and returns the simulated
// time at which the process was woken. A signal is an edge — waiters that
// arrive later wait for the next Fire — so the process settles its lead
// first: it must not be on the list before its own clock says so.
func (p *Proc) Wait(sig *Signal) Time {
	p.Sync()
	p.Await(sig)
	return p.sim.Now()
}

// Await parks the process until the signal's next Fire without settling its
// lead: it is the wait for a level the caller re-checks in a loop (see Proc),
// as in
//
//	for queue.Len() == 0 {
//		p.Await(arrived)
//	}
//
// A Fire that comes before the process's clock leaves the clock where it was;
// a later one moves it to the Fire's instant.
func (p *Proc) Await(sig *Signal) {
	sig.waiters.add(p)
	p.waitingOn = sig
	p.sim.blocked++
	p.park()
	p.waitingOn = nil
	p.sim.blocked--
}

// Signal is a broadcast wakeup usable by processes. Firing wakes every
// current waiter at the current simulated time; waiters that arrive later
// wait for the next Fire.
type Signal struct {
	waiters waitList // parked in Wait or Await
}

// waitList is a signal's list of parked processes, double-buffered so that
// Fire can walk one backing array while processes it wakes queue up on the
// other for the next Fire — and neither is reallocated per firing.
type waitList struct {
	procs []*Proc
	spare []*Proc // the idle buffer; nil while a Fire is walking it
}

// add queues p for the next Fire. The first waiter brings both buffers, one
// slot each, in one allocation: a process that waits again inside the Fire
// that woke it (Await in a loop) needs the second at once.
func (l *waitList) add(p *Proc) {
	if cap(l.procs) == 0 && l.spare == nil {
		both := make([]*Proc, 2)
		l.procs, l.spare = both[0:0:1], both[1:1:2]
	}
	l.procs = append(l.procs, p)
}

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

// remove unhooks a killed process.
func (l *waitList) remove(p *Proc) {
	for i, x := range l.procs {
		if x == p {
			l.procs = append(l.procs[:i], l.procs[i+1:]...)
			return
		}
	}
}

// NewSignal returns a signal for the simulator's processes to wait on.
func (s *Simulator) NewSignal() *Signal { return &Signal{} }

// Fire wakes all current waiters. Each waiter resumes at the current
// simulated time, in the order they began waiting.
func (sig *Signal) Fire() {
	waiters := sig.waiters.take()
	for _, p := range waiters {
		p.wakeNow()
	}
	sig.waiters.done(waiters)
}
