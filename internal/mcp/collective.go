package mcp

import (
	"encoding/binary"
	"fmt"
)

// This file is the host-facing half of the paper's stated future work
// (Section 8): "we intend to investigate whether other collective
// communication operations, such as reductions or all-to-all broadcast could
// benefit from similar NIC-level implementations." What a collective is — the
// operations, the combiners, the token the host fills — lives here; running
// one is the GB barrier's tree walk with a payload riding along (tree.go),
// with the same design solutions: per-port token slot, unexpected-message
// record, and (in reliable mode) the separate acknowledgment mechanism.

// CollOp selects the collective operation a CollToken executes.
type CollOp int

const (
	// Broadcast: the root's payload reaches every participant.
	Broadcast CollOp = iota
	// Reduce: all participants' vectors combine at the root.
	Reduce
	// AllReduce: Reduce followed by a NIC-level broadcast of the result.
	AllReduce
	// AllGather: all-to-all broadcast — every rank's fixed-size block
	// reaches every rank, in rank order (the Section 8 wording).
	AllGather
)

func (o CollOp) String() string {
	switch o {
	case Broadcast:
		return "broadcast"
	case Reduce:
		return "reduce"
	case AllReduce:
		return "allreduce"
	case AllGather:
		return "allgather"
	default:
		return fmt.Sprintf("collop(%d)", int(o))
	}
}

// ReduceOp is the element-wise combiner for Reduce/AllReduce. Vectors are
// little-endian int64 elements; the NIC firmware executes the combine, so
// its cost scales with vector length at NIC speed (see
// FirmwareParams.CollPerElem).
type ReduceOp int

const (
	// OpSum adds elements.
	OpSum ReduceOp = iota
	// OpMin keeps the minimum.
	OpMin
	// OpMax keeps the maximum.
	OpMax
	// OpBAnd bitwise-ands elements.
	OpBAnd
	// OpBOr bitwise-ors elements.
	OpBOr
)

func (o ReduceOp) String() string {
	switch o {
	case OpSum:
		return "sum"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	case OpBAnd:
		return "band"
	case OpBOr:
		return "bor"
	default:
		return fmt.Sprintf("reduceop(%d)", int(o))
	}
}

// ElemBytes is the reduce element width.
const ElemBytes = 8

// Combine applies op element-wise: dst = dst (op) src. Short or ragged
// vectors combine over the common prefix of whole elements. It is the one
// copy of the rule: the host-level baselines (core, mpi) call it too.
func (o ReduceOp) Combine(dst, src []byte) {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	for i := 0; i+ElemBytes <= n; i += ElemBytes {
		a := int64(binary.LittleEndian.Uint64(dst[i:]))
		b := int64(binary.LittleEndian.Uint64(src[i:]))
		var r int64
		switch o {
		case OpSum:
			r = a + b
		case OpMin:
			r = a
			if b < a {
				r = b
			}
		case OpMax:
			r = a
			if b > a {
				r = b
			}
		case OpBAnd:
			r = a & b
		case OpBOr:
			r = a | b
		default:
			r = a
		}
		binary.LittleEndian.PutUint64(dst[i:], uint64(r))
	}
}

// CollToken is the host-filled descriptor of one collective operation for
// one port, mirroring BarrierToken: the host computes the tree neighborhood
// and hands over the local contribution, the NIC runs the operation (tree.go)
// and keeps its state in the port's collective slot.
type CollToken struct {
	Op      CollOp
	Reduce  ReduceOp
	SrcPort int

	Root     bool
	Parent   Endpoint
	Children []Endpoint

	// Value is the local contribution (Reduce/AllReduce/AllGather) or,
	// at the root, the broadcast payload.
	Value []byte

	// Rank, BlockSize and GroupSize describe the AllGather layout: this
	// node's rank, the per-rank block size, and the group size.
	Rank      int
	BlockSize int
	GroupSize int
}

// Completion is delivered through the normal host event queue with Kind ==
// CollDoneEvent and Data holding the result (broadcast payload, reduction
// result or gathered array; Reduce delivers data only at the root).

// Validate reports what is wrong with the token's host-filled fields, if
// anything. The GM library checks before it commits host-side state; the
// firmware checks again when the token is posted.
func (t *CollToken) Validate() error {
	if t.Op == AllGather && (t.BlockSize <= 0 || t.GroupSize <= 0 || len(t.Value) != t.BlockSize) {
		return fmt.Errorf("mcp: allgather needs BlockSize/GroupSize and a block-sized Value")
	}
	return nil
}

// The four methods below are what a tree walk reads off an operation, at the
// NIC (tree.go) and at the host (core): a nil token is the GB barrier.

// Phases reports whether the operation has an up phase (all but Broadcast)
// and a down phase (all but Reduce).
func (t *CollToken) Phases() (up, down bool) {
	return t == nil || t.Op != Broadcast, t == nil || t.Op != Reduce
}

// Seed is the accumulator the operation starts from at this node: a copy of
// the local contribution — for AllGather tagged with its rank — and nothing
// for Broadcast or for a barrier.
func (t *CollToken) Seed() []byte {
	switch {
	case t == nil || t.Op == Broadcast:
		return nil
	case t.Op == AllGather:
		return PackEntry(t.Rank, t.Value)
	default:
		return append([]byte(nil), t.Value...)
	}
}

// Absorb folds a child's up payload into acc and returns the accumulator:
// concatenation of tagged entries for AllGather, the element-wise combine for
// the reductions, and for a barrier, whose messages carry none, nothing.
func (t *CollToken) Absorb(acc, part []byte) []byte {
	switch {
	case t == nil:
	case t.Op == AllGather:
		acc = append(acc, part...)
	default:
		t.Reduce.Combine(acc, part)
	}
	return acc
}

// Result is what the root delivers once acc holds every contribution: the
// payload it was given (Broadcast), the combined vector, or the rank-ordered
// array assembled from the tagged entries (AllGather) — an error if they do
// not make one. A barrier delivers nothing.
func (t *CollToken) Result(acc []byte) ([]byte, error) {
	switch {
	case t == nil:
		return nil, nil
	case t.Op == Broadcast:
		return t.Value, nil
	case t.Op == AllGather:
		return AssembleGather(acc, t.GroupSize, t.BlockSize)
	default:
		return acc, nil
	}
}

// PostCollectiveToken accepts a collective send token. The port must have a
// collective buffer provided (ScheduleCredits, CollectiveBuffer) and no
// collective in flight.
func (m *MCP) PostCollectiveToken(tok *CollToken) error {
	if err := tok.Validate(); err != nil {
		return err
	}
	fam := &treeFamilies[collSlot]
	return m.post(tok.SrcPort, fam, fam.costs(&m.cfg.Params).token, postedRec{m: m, coll: tok})
}
