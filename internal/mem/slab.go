// Package mem holds the two allocation-avoiding containers the simulator's
// hot paths share: Slab, a chunked object pool addressed by uint64 handles
// that fit an event argument, and PopFront, a FIFO pop that keeps a short
// queue's backing array.
package mem

import "math/bits"

// Slab is an arena-backed object pool: a chunked store of T with a
// free list, addressed by dense uint64 handles. It backs the simulator's
// hot-path event payloads (in-flight hop records, forward descriptors)
// so the schedule→deliver path performs zero heap allocations in steady
// state: Get reuses a freed cell when one exists and only grows the arena
// — one chunk at a time, amortized — when the live population rises.
//
// Handles are plain indices, not pointers, so a payload can ride through
// the event queue in a uint64 argument (see sim.AtCall) and the garbage
// collector never scans a per-event allocation. Cells are NOT generation-
// tagged: a slab is a single-owner structure (one fabric component) whose
// Get/Put pairs are strictly matched by construction, unlike the
// simulator's cancellable events.
//
// The chunked layout (chunks are never reallocated) keeps *T pointers
// stable across Get calls, so a caller may hold the pointer for the
// duration of the cell's lease. Chunk k holds slabFirst<<k cells: a slab
// that only ever has a handful of cells in flight — most of them: one per
// link, switch port, NIC and firmware queue — costs a few hundred bytes
// rather than a 256-cell block, which is what made building a cluster
// allocate (and a short-lived cluster retain) megabytes; a busy slab still
// reaches large chunks within a few doublings.
type Slab[T any] struct {
	chunks [][]T
	free   []uint64
}

// slabFirst is the number of cells in chunk 0.
const slabFirst = 8

// chunkBase returns the handle of chunk k's first cell.
func chunkBase(k int) uint64 { return slabFirst * (1<<k - 1) }

// Get leases a cell, returning its handle and a stable pointer. The cell
// holds whatever value it had when released; callers overwrite every field
// they use.
func (s *Slab[T]) Get() (uint64, *T) {
	if n := len(s.free); n > 0 {
		h := s.free[n-1]
		s.free = s.free[:n-1]
		return h, s.At(h)
	}
	last := len(s.chunks) - 1
	if last < 0 || len(s.chunks[last]) == cap(s.chunks[last]) {
		last++
		s.chunks = append(s.chunks, make([]T, 0, slabFirst<<last))
	}
	c := &s.chunks[last]
	*c = (*c)[:len(*c)+1]
	return chunkBase(last) + uint64(len(*c)-1), &(*c)[len(*c)-1]
}

// At returns the stable pointer for a leased handle.
func (s *Slab[T]) At(h uint64) *T {
	k := bits.Len64(h/slabFirst+1) - 1
	return &s.chunks[k][h-chunkBase(k)]
}

// Put releases a cell back to the free list. The pointed-to value is left
// as-is; callers holding reference types should clear them first if they
// want the GC to reclaim what the cell pointed at.
func (s *Slab[T]) Put(h uint64) {
	s.free = append(s.free, h)
}
