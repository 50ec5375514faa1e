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
	if s.Live() != len(held) {
		t.Fatalf("Live() = %d, want %d", s.Live(), len(held))
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
	for _, l := range held {
		s.Put(l.h)
	}
	if s.Live() != 0 {
		t.Fatalf("Live() = %d after releasing all, want 0", s.Live())
	}
	capBefore := s.Cap()
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
	if s.Cap() != capBefore {
		t.Errorf("Cap() grew from %d to %d at steady state", capBefore, s.Cap())
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
