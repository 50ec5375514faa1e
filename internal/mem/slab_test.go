package mem

import "testing"

func TestSlabLeaseRelease(t *testing.T) {
	var s Slab[[3]int]
	type lease struct {
		h uint64
		p *[3]int
	}
	var held []lease
	for i := 0; i < 25*slabFirst; i++ { // into the fifth chunk
		h, p := s.Get()
		p[0] = i
		held = append(held, lease{h, p})
	}
	// Pointers are stable and addressable by handle across later growth.
	for i, l := range held {
		if s.At(l.h) != l.p {
			t.Fatalf("cell %d: At(%d) moved", i, l.h)
		}
		if l.p[0] != i {
			t.Fatalf("cell %d: value clobbered to %d", i, l.p[0])
		}
	}
	released := make(map[uint64]*[3]int, len(held))
	for _, l := range held {
		s.Put(l.h)
		released[l.h] = l.p
	}
	// The next leases reuse the released cells, each once, before growing.
	for range held {
		h, p := s.Get()
		if released[h] != p {
			t.Fatalf("lease after release-all got handle %d (%p), not a released cell", h, p)
		}
		delete(released, h)
	}
	for _, l := range held {
		s.Put(l.h)
	}
	// Steady state: lease/release cycles reuse freed cells, never grow.
	if avg := testing.AllocsPerRun(100, func() {
		var hs [16]uint64
		for i := range hs {
			hs[i], _ = s.Get()
		}
		for _, h := range hs {
			s.Put(h)
		}
	}); avg != 0 {
		t.Errorf("steady-state Get/Put allocates %.2f per run, want 0", avg)
	}
}

func TestPopFrontKeepsBackingArray(t *testing.T) {
	q := make([]*int, 0, 4)
	one, two := new(int), new(int)
	q = append(q, one, two)
	if got := PopFront(&q); got != one || len(q) != 1 || q[0] != two || cap(q) != 4 {
		t.Fatalf("after PopFront: got %p len %d cap %d", got, len(q), cap(q))
	}
	if q[:2][1] != nil {
		t.Error("vacated slot still references the moved entry")
	}
	if avg := testing.AllocsPerRun(100, func() {
		q = append(q, one)
		PopFront(&q)
	}); avg != 0 {
		t.Errorf("append+PopFront allocates %.2f per run, want 0", avg)
	}
}
