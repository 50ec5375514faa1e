package sim

// FindMinWork reports the buckets findMin has looked at and the direct
// sweeps it has made, over the simulator's life.
func (s *Simulator) FindMinWork() (probes, sweeps int64) { return s.probes, s.sweeps }

// CalendarShape reports the calendar's bucket count and bucket width.
func (s *Simulator) CalendarShape() (buckets int, width Time) {
	return len(s.buckets), Time(1) << s.widthLog
}

// NextEventTime returns the timestamp of the earliest pending event and
// whether one exists. FuzzEventQueue peeks with it between bursts: a peek
// moves the calendar's current day, which is how the queue-order bug of a
// push behind an advanced day was found.
func (s *Simulator) NextEventTime() (Time, bool) { return s.next() }

// Placements reports how many events schedule has placed in the calendar
// over the simulator's life (a rebuild's re-placing does not count). A run
// whose every placed event ran has placed as many as it executed.
func (s *Simulator) Placements() int64 { return s.placed }

// QueuedTimers reports how many timer entries the heap holds, disarmed and
// early ones included.
func (s *Simulator) QueuedTimers() int { return len(s.timers) }

// Waiting reports how many processes are currently parked on the signal.
func (sig *Signal) Waiting() int { return len(sig.waiters.procs) }
