package mem

// AppendChunked appends v to a recording kept in chunks of size records:
// to the last chunk, or to a new one when that is full. A recording that
// is read in place never re-copies what it holds as it grows, and chunks
// that a truncation of the outer slice let go of (chunks[:k] after a reset
// or a compaction) are reused, emptied, before any new one is made.
func AppendChunked[T any](chunks [][]T, v T, size int) [][]T {
	last := len(chunks) - 1
	if last < 0 || len(chunks[last]) == size {
		if len(chunks) < cap(chunks) && cap(chunks[:last+2][last+1]) == size {
			chunks = chunks[:last+2]
			chunks[last+1] = chunks[last+1][:0]
		} else {
			chunks = append(chunks, make([]T, 0, size))
		}
		last++
	}
	chunks[last] = append(chunks[last], v)
	return chunks
}
