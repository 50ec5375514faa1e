// Package core is the paper's primary contribution as a library: barrier
// synchronization for Myrinet/GM clusters, in both placements the paper
// compares —
//
//   - NIC-based: the host computes the communication schedule (the PE peer
//     list or the GB tree neighborhood) and hands it to the NIC firmware,
//     which runs the whole barrier without host involvement
//     (gm_provide_barrier_buffer + gm_barrier_send_with_callback), and
//   - host-based: the same algorithms executed by the host over ordinary
//     GM sends and receives, the paper's baseline.
//
// Both the pairwise-exchange (PE) algorithm of MPICH and the
// gather-and-broadcast (GB) algorithm over fixed-dimension trees are
// provided, plus split-phase ("fuzzy") barriers that let the host compute
// while the NIC completes the barrier.
package core

import (
	"fmt"

	"gmsim/internal/mcp"
	"gmsim/internal/network"
)

// Group is an ordered set of endpoints participating in a barrier;
// a process's rank is its index. A group is immutable once used: a Comm
// recognizes the group of its previous call by the identity of the slice
// (base pointer and length) instead of comparing n endpoints on every
// barrier of every rank, so a new membership is a new slice. Build the group
// once per cell and share it across ranks, as UniformGroup's callers do.
type Group []mcp.Endpoint

// at returns the members at the given ranks, in one allocation; nil for
// none.
func (g Group) at(ranks []int) []mcp.Endpoint {
	if len(ranks) == 0 {
		return nil
	}
	eps := make([]mcp.Endpoint, len(ranks))
	for i, r := range ranks {
		eps[i] = g[r]
	}
	return eps
}

// UniformGroup builds the common case used throughout the paper's
// evaluation: one process per node, all using the same port number, on
// nodes 0..n-1.
func UniformGroup(n, port int) Group {
	g := make(Group, n)
	for i := range g {
		g[i] = mcp.Endpoint{Node: network.NodeID(i), Port: port}
	}
	return g
}

// PESchedule returns the ordered list of peer ranks that rank exchanges
// messages with in an n-process pairwise-exchange barrier.
//
// For powers of two this is MPICH's recursive doubling: step k pairs rank
// with rank XOR 2^k. For other sizes (an extension — the paper evaluates
// only 2/4/8/16) the ranks beyond the largest power of two m fold into
// their partner below m with an exchange before and after the doubling
// phase, preserving the invariant that every step is a full pairwise
// exchange (send then receive with the same partner), which is exactly the
// primitive the NIC firmware implements.
func PESchedule(rank, n int) ([]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: group size %d", n)
	}
	if rank < 0 || rank >= n {
		return nil, fmt.Errorf("core: rank %d out of range [0,%d)", rank, n)
	}
	if n == 1 {
		return []int{}, nil
	}
	m, steps := 1, 0
	for m*2 <= n {
		m *= 2
		steps++
	}
	extra := n - m
	// Each schedule is built once, at its exact length.
	doubling := func(s []int, r int) []int {
		for mask := 1; mask < m; mask <<= 1 {
			s = append(s, r^mask)
		}
		return s
	}
	switch {
	case rank >= m:
		// Folded-in rank: announce arrival, then wait for release.
		return []int{rank - m, rank - m}, nil
	case rank < extra:
		// Partner of a folded-in rank: absorb it, run the doubling,
		// release it.
		s := append(make([]int, 0, steps+2), rank+m)
		s = doubling(s, rank)
		return append(s, rank+m), nil
	default:
		return doubling(make([]int, 0, steps), rank), nil
	}
}

// LeafMap is a cell's leaf-switch grouping: the ranks attached to each leaf
// switch in rank order, the switches ordered by first appearance (rank 0's
// is group 0). It is built once per cell (NewLeafMap) and shared, read-only,
// by every rank, which is what keeps a mapped GBTree call O(dim).
type LeafMap struct {
	members [][]int // ranks per leaf switch
	group   []int   // rank -> index into members
	index   []int   // rank -> position in members[group[rank]]
}

// NewLeafMap groups ranks by the switch their NIC attaches to; leafOf maps
// rank to leaf-switch index (cluster.Topology().LeafOf()).
func NewLeafMap(leafOf []int) *LeafMap {
	lm := &LeafMap{group: make([]int, len(leafOf)), index: make([]int, len(leafOf))}
	groupOf := make(map[int]int)
	for r, leaf := range leafOf {
		gi, ok := groupOf[leaf]
		if !ok {
			gi = len(lm.members)
			groupOf[leaf] = gi
			lm.members = append(lm.members, nil)
		}
		lm.group[r], lm.index[r] = gi, len(lm.members[gi])
		lm.members[gi] = append(lm.members[gi], r)
	}
	return lm
}

// GBTree returns rank's neighborhood in the n-process
// gather-and-broadcast tree of the given dimension. Rank 0 is the root and
// has parent -1.
//
// With a nil leaf map the tree is flat: each node has up to dim children,
// laid out heap-style in rank order (children of i are dim*i+1 ..
// dim*i+dim). The paper sweeps dim from 1 to N-1 and reports the best
// (Section 6): dim 1 degenerates to a chain, dim N-1 to a star.
//
// A non-nil leaf map makes the tree topology-aware: ranks sharing a leaf
// switch form a dimension-dim heap tree among themselves (in rank order),
// and the lowest rank of each leaf — its leader — joins a dimension-dim heap
// tree of leaders (leaves ordered by first appearance).
// Every edge except the leader-to-leader ones stays inside one crossbar, so
// on a multi-switch fabric the tree crosses trunks exactly (#leaves - 1)
// times — the minimum any spanning structure can achieve — instead of
// scattering hops across the fabric the way the flat heap layout does. A
// leaf map that places every rank on the same switch equals the flat tree.
func GBTree(rank, n, dim int, lm *LeafMap) (parent int, children []int, err error) {
	if n <= 0 {
		return 0, nil, fmt.Errorf("core: group size %d", n)
	}
	if rank < 0 || rank >= n {
		return 0, nil, fmt.Errorf("core: rank %d out of range [0,%d)", rank, n)
	}
	if dim < 1 || (n > 1 && dim > n-1) {
		return 0, nil, fmt.Errorf("core: tree dimension %d out of range [1,%d]", dim, n-1)
	}
	if lm == nil {
		parent, lo, hi := heapTree(rank, n, dim)
		if lo <= hi {
			children = make([]int, 0, hi-lo+1)
		}
		for c := lo; c <= hi; c++ {
			children = append(children, c)
		}
		return parent, children, nil
	}
	if len(lm.group) != n {
		return 0, nil, fmt.Errorf("core: leaf map covers %d ranks, group has %d", len(lm.group), n)
	}
	gi := lm.group[rank]
	local := lm.members[gi]
	// Intra-switch subtree over the local members. The local dimension is
	// clamped so small groups keep a valid tree.
	localDim := dim
	if len(local) > 1 && localDim > len(local)-1 {
		localDim = len(local) - 1
	}
	lparent, llo, lhi := heapTree(lm.index[rank], len(local), localDim)
	if lparent >= 0 {
		// Interior rank: both neighbors are on this switch.
		parent = local[lparent]
	} else if gi == 0 {
		parent = -1 // global root
	} else {
		// Leaf leader: parent is the leader of the parent group in the
		// dimension-dim leader tree.
		parent = lm.members[(gi-1)/dim][0]
	}
	// Leaders forward to child-group leaders glo..ghi first: those messages
	// cross trunks, so starting them before the intra-switch sends overlaps
	// the long hops with the short ones.
	glo, ghi := 1, 0
	if lparent < 0 {
		glo, ghi = dim*gi+1, min(dim*gi+dim, len(lm.members)-1)
	}
	if k := max(ghi-glo+1, 0) + max(lhi-llo+1, 0); k > 0 {
		children = make([]int, 0, k)
	}
	for cg := glo; cg <= ghi; cg++ {
		children = append(children, lm.members[cg][0])
	}
	for lc := llo; lc <= lhi; lc++ {
		children = append(children, local[lc])
	}
	return parent, children, nil
}

// heapTree is the flat dimension-dim tree over ranks 0..n-1 (arguments
// already validated): rank's parent, and its children lo..hi (none when
// lo > hi).
func heapTree(rank, n, dim int) (parent, lo, hi int) {
	parent = -1
	if rank > 0 {
		parent = (rank - 1) / dim
	}
	return parent, dim*rank + 1, min(dim*rank+dim, n-1)
}

// NICBarrierToken builds the barrier send token for rank self of the
// group: the host-side computation the paper deliberately keeps off the
// NIC ("the host at a particular node needs to inform the NIC only of the
// children and parent of the node, rather than all the nodes in the
// barrier"). dim and lm (see GBTree) are used only for GB — PE's
// schedule is fixed by the recursive-doubling structure.
func NICBarrierToken(alg mcp.BarrierAlg, g Group, self, dim int, lm *LeafMap) (*mcp.BarrierToken, error) {
	n := len(g)
	if self < 0 || self >= n {
		return nil, fmt.Errorf("core: rank %d out of range [0,%d)", self, n)
	}
	tok := &mcp.BarrierToken{Alg: alg}
	switch alg {
	case mcp.PE:
		sched, err := PESchedule(self, n)
		if err != nil {
			return nil, err
		}
		tok.Peers = g.at(sched)
	case mcp.GB:
		parent, children, err := GBTree(self, n, dim, lm)
		if err != nil {
			return nil, err
		}
		if parent < 0 {
			tok.Root = true
		} else {
			tok.Parent = g[parent]
		}
		tok.Children = g.at(children)
	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", alg)
	}
	return tok, nil
}
