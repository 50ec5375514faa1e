package mem

// PopFront removes and returns the oldest entry of a short FIFO slice by
// closing the gap in place, so the queue keeps its backing array: reslicing
// from the front (q = q[1:]) sheds capacity and makes every later append
// reallocate. The copy is O(len), which is why this is for queues that hold
// a handful of entries (posted tokens, stashed messages).
func PopFront[T any](q *[]T) T {
	var zero T
	s := *q
	v := s[0]
	n := copy(s, s[1:])
	s[n] = zero
	*q = s[:n]
	return v
}
