package sim

// FindMinWork reports the buckets findMin has looked at and the direct
// sweeps it has made, over the simulator's life.
func (s *Simulator) FindMinWork() (probes, sweeps int64) { return s.probes, s.sweeps }

// CalendarShape reports the calendar's bucket count and bucket width.
func (s *Simulator) CalendarShape() (buckets int, width Time) {
	return len(s.buckets), Time(1) << s.widthLog
}
