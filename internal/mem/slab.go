// Package mem holds the allocation-avoiding containers the simulator's
// hot paths share: Slab, a chunked object pool whose cells' pointers ride
// through the event queue as event arguments (see sim.AtCall); PopFront, a
// FIFO pop that keeps a short queue's backing array; and AppendChunked, the
// chunked store the trace and phase recorders keep their records in.
package mem

// Slab is an arena-backed object pool: a chunked store of T with a free
// list. It backs the firmware's hot-path event payloads (barrier frames
// being prepared, posted tokens, host events, data sends, control frames)
// so scheduling a task performs zero heap allocations in steady state: Get
// reuses the most recently freed cell when one exists and only grows the
// arena — one chunk at a time, amortized — when the live population rises.
//
// A chunk is never reallocated, so a cell's pointer is stable for the whole
// lease: the pointer itself is the event argument, and the callback that
// receives it reaches the record with no lookup. Cells are NOT generation-
// tagged: a slab is a single-owner structure (one firmware instance) whose
// Get/Put pairs are strictly matched by construction, unlike the
// simulator's cancellable events.
//
// Chunk k holds slabFirst<<k cells: a slab that only ever has a handful of
// cells in flight — most of them: one per firmware queue — costs a few
// hundred bytes rather than a 256-cell block, which is what made building a
// cluster allocate (and a short-lived cluster retain) megabytes; a busy
// slab still reaches large chunks within a few doublings. Only the newest
// chunk is kept here; older ones stay reachable through the leased and
// freed pointers into them.
type Slab[T any] struct {
	cur  []T // newest chunk; cells past len(cur) have never been leased
	free []*T
}

// slabFirst is the number of cells in chunk 0.
const slabFirst = 8

// Get leases a cell and returns its stable pointer. The cell holds whatever
// value it had when released; callers overwrite every field they use.
func (s *Slab[T]) Get() *T {
	if n := len(s.free); n > 0 {
		p := s.free[n-1]
		s.free = s.free[:n-1]
		return p
	}
	if len(s.cur) == cap(s.cur) {
		s.cur = make([]T, 0, max(slabFirst, 2*cap(s.cur)))
	}
	s.cur = s.cur[:len(s.cur)+1]
	return &s.cur[len(s.cur)-1]
}

// Put releases a leased cell back to the free list. The pointed-to value is
// left as-is; callers holding reference types should clear them first if
// they want the GC to reclaim what the cell pointed at.
func (s *Slab[T]) Put(p *T) {
	s.free = append(s.free, p)
}
