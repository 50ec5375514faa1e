package mcp

import (
	"encoding/binary"
	"fmt"
)

// All-to-all broadcast (allgather) — the collective the paper's Section 8
// names explicitly ("reductions or all-to-all broadcast"). Every rank
// contributes one fixed-size block; every rank ends with all blocks in
// rank order. The NIC-level implementation is the tree walk of tree.go:
// blocks concatenate on the way up (each tagged with its origin rank),
// the root assembles the full array, and the down phase distributes it.

// entryHeader is the per-block tag: the origin rank as 8 bytes (keeping
// 8-byte alignment for the DMA model).
const entryHeader = 8

// PackEntry prepends the rank tag to a block. With AssembleGather it is the
// allgather wire codec, used by the firmware and by the host-level baseline
// (core.HostAllGather) alike.
func PackEntry(rank int, block []byte) []byte {
	out := make([]byte, entryHeader+len(block))
	binary.LittleEndian.PutUint64(out, uint64(int64(rank)))
	copy(out[entryHeader:], block)
	return out
}

// AssembleGather scatters tagged entries into a rank-ordered array of
// groupSize blocks of blockSize bytes each. Unknown or duplicate ranks
// return an error.
func AssembleGather(entries []byte, groupSize, blockSize int) ([]byte, error) {
	stride := entryHeader + blockSize
	if len(entries)%stride != 0 {
		return nil, fmt.Errorf("mcp: allgather payload %d not a multiple of %d", len(entries), stride)
	}
	out := make([]byte, groupSize*blockSize)
	seen := make([]bool, groupSize)
	for off := 0; off < len(entries); off += stride {
		rank := int(int64(binary.LittleEndian.Uint64(entries[off:])))
		if rank < 0 || rank >= groupSize {
			return nil, fmt.Errorf("mcp: allgather rank %d out of range", rank)
		}
		if seen[rank] {
			return nil, fmt.Errorf("mcp: allgather duplicate block for rank %d", rank)
		}
		seen[rank] = true
		copy(out[rank*blockSize:], entries[off+entryHeader:off+stride])
	}
	for r, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("mcp: allgather missing block for rank %d", r)
		}
	}
	return out, nil
}
