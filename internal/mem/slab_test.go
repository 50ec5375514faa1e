package mem

import "testing"

func TestSlabLeaseRelease(t *testing.T) {
	var s Slab[[3]int]
	var held []*[3]int
	for i := 0; i < 25*slabFirst; i++ { // into the fifth chunk
		p := s.Get()
		p[0] = i
		for _, q := range held {
			if q == p {
				t.Fatalf("lease %d handed out cell %p a second time", i, p)
			}
		}
		held = append(held, p)
	}
	// Pointers stay valid across later chunk growth: no cell moved, so each
	// still holds what was written through it.
	for i, p := range held {
		if p[0] != i {
			t.Fatalf("cell %d: value clobbered to %d", i, p[0])
		}
	}
	// Released cells come back last-in first-out, each once, before the
	// slab grows again.
	for _, p := range held {
		s.Put(p)
	}
	for i := len(held) - 1; i >= 0; i-- {
		if p := s.Get(); p != held[i] {
			t.Fatalf("lease after release-all got %p, want the cell released last (%p)", p, held[i])
		}
	}
	for _, p := range held {
		s.Put(p)
	}
	// Steady state: lease/release cycles reuse freed cells, never grow.
	if avg := testing.AllocsPerRun(100, func() {
		var ps [16]*[3]int
		for i := range ps {
			ps[i] = s.Get()
		}
		for _, p := range ps {
			s.Put(p)
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

// AppendChunked fills chunks of the given size in order, and after the
// outer slice is truncated refills the chunks it let go of, emptied, before
// it allocates another.
func TestAppendChunkedReusesChunks(t *testing.T) {
	var c [][]int
	for i := range 10 {
		c = AppendChunked(c, i, 4)
	}
	if len(c) != 3 || len(c[0]) != 4 || len(c[1]) != 4 || len(c[2]) != 2 || c[1][0] != 4 || c[2][1] != 9 {
		t.Fatalf("10 records in chunks of 4: %v", c)
	}
	first := &c[1][:1][0]
	c = c[:0]
	if avg := testing.AllocsPerRun(20, func() {
		c = c[:0]
		for i := range 10 {
			c = AppendChunked(c, -i, 4)
		}
	}); avg != 0 {
		t.Errorf("refilling after a truncation allocates %.2f per run, want 0", avg)
	}
	if len(c) != 3 || len(c[2]) != 2 || c[2][1] != -9 || &c[1][0] != first {
		t.Errorf("refilled chunks: %v (second chunk moved: %v)", c, &c[1][0] != first)
	}
}
