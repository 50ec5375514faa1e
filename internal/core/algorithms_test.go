package core

import (
	"testing"
	"testing/quick"

	"gmsim/internal/mcp"
	"gmsim/internal/model"
	"gmsim/internal/network"
)

func TestPEScheduleSingleton(t *testing.T) {
	s, err := PESchedule(0, 1)
	if err != nil || len(s) != 0 {
		t.Fatalf("PESchedule(0,1) = %v, %v", s, err)
	}
}

func TestPEScheduleTwo(t *testing.T) {
	s0, _ := PESchedule(0, 2)
	s1, _ := PESchedule(1, 2)
	if len(s0) != 1 || s0[0] != 1 || len(s1) != 1 || s1[0] != 0 {
		t.Fatalf("schedules = %v / %v", s0, s1)
	}
}

func TestPESchedulePowerOfTwo(t *testing.T) {
	// 8 ranks: recursive doubling, 3 steps, step k partner = rank^2^k.
	for rank := 0; rank < 8; rank++ {
		s, err := PESchedule(rank, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(s) != 3 {
			t.Fatalf("rank %d: %d steps, want 3", rank, len(s))
		}
		for k, peer := range s {
			if peer != rank^(1<<k) {
				t.Fatalf("rank %d step %d: peer %d, want %d", rank, k, peer, rank^(1<<k))
			}
		}
	}
}

func TestPEScheduleErrors(t *testing.T) {
	if _, err := PESchedule(0, 0); err == nil {
		t.Fatal("n=0 should error")
	}
	if _, err := PESchedule(-1, 4); err == nil {
		t.Fatal("negative rank should error")
	}
	if _, err := PESchedule(4, 4); err == nil {
		t.Fatal("rank==n should error")
	}
}

func TestPESchedulePairingConsistency(t *testing.T) {
	// Power of two: if rank r has peer q at step k, then q has peer r at
	// step k — the exchanges pair up.
	for _, n := range []int{2, 4, 8, 16, 32} {
		scheds := make([][]int, n)
		for r := 0; r < n; r++ {
			scheds[r], _ = PESchedule(r, n)
		}
		for r := 0; r < n; r++ {
			for k, q := range scheds[r] {
				if scheds[q][k] != r {
					t.Fatalf("n=%d: rank %d step %d pairs with %d, but %d's step-%d peer is %d",
						n, r, k, q, q, k, scheds[q][k])
				}
			}
		}
	}
}

// matchable verifies the non-power-of-two schedule forms a deadlock-free
// matching: simulate the NIC protocol abstractly. Each rank processes its
// peer list in order; an exchange (r <-> q) completes when each side's
// message to the other has been "sent". Sends happen eagerly for the
// current index; a completed receive advances the index. This mirrors the
// firmware's semantics including the unexpected-message record.
func matchable(n int) bool {
	scheds := make([][]int, n)
	for r := 0; r < n; r++ {
		scheds[r], _ = PESchedule(r, n)
	}
	idx := make([]int, n)
	// pendingMsgs[to][from] = count of messages sent from->to not yet consumed.
	pending := make([]map[int]int, n)
	for i := range pending {
		pending[i] = make(map[int]int)
	}
	sent := make([]int, n) // how many sends rank has issued (== idx it has sent for)
	progress := true
	for progress {
		progress = false
		for r := 0; r < n; r++ {
			// Send for current index if not yet sent.
			if idx[r] < len(scheds[r]) && sent[r] == idx[r] {
				q := scheds[r][idx[r]]
				pending[q][r]++
				sent[r]++
				progress = true
			}
			// Consume expected message if present.
			if idx[r] < len(scheds[r]) {
				q := scheds[r][idx[r]]
				if pending[r][q] > 0 {
					pending[r][q]--
					idx[r]++
					progress = true
				}
			}
		}
	}
	for r := 0; r < n; r++ {
		if idx[r] != len(scheds[r]) {
			return false
		}
	}
	// All messages consumed: at most-one-unexpected invariant held.
	for r := 0; r < n; r++ {
		for _, cnt := range pending[r] {
			if cnt != 0 {
				return false
			}
		}
	}
	return true
}

func TestPEScheduleNonPowerOfTwoCompletes(t *testing.T) {
	for n := 1; n <= 40; n++ {
		if !matchable(n) {
			t.Fatalf("PE schedule for n=%d does not complete", n)
		}
	}
}

func TestPropertyPEScheduleCompletes(t *testing.T) {
	f := func(x uint16) bool {
		n := int(x%200) + 1
		return matchable(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGBTreeRoot(t *testing.T) {
	parent, children, err := GBTree(0, 16, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if parent != -1 {
		t.Fatalf("root parent = %d", parent)
	}
	want := []int{1, 2, 3, 4}
	if len(children) != 4 {
		t.Fatalf("root children = %v, want %v", children, want)
	}
	for i, c := range children {
		if c != want[i] {
			t.Fatalf("root children = %v, want %v", children, want)
		}
	}
}

func TestGBTreeStar(t *testing.T) {
	// dim = n-1: flat star.
	_, children, _ := GBTree(0, 8, 7, nil)
	if len(children) != 7 {
		t.Fatalf("star root has %d children", len(children))
	}
	for r := 1; r < 8; r++ {
		parent, ch, _ := GBTree(r, 8, 7, nil)
		if parent != 0 || len(ch) != 0 {
			t.Fatalf("star leaf %d: parent=%d children=%v", r, parent, ch)
		}
	}
}

func TestGBTreeChain(t *testing.T) {
	// dim = 1: chain.
	for r := 0; r < 6; r++ {
		parent, children, _ := GBTree(r, 6, 1, nil)
		wantParent := r - 1
		if r == 0 {
			wantParent = -1
		}
		if parent != wantParent {
			t.Fatalf("chain rank %d parent = %d, want %d", r, parent, wantParent)
		}
		if r < 5 && (len(children) != 1 || children[0] != r+1) {
			t.Fatalf("chain rank %d children = %v", r, children)
		}
		if r == 5 && len(children) != 0 {
			t.Fatalf("chain tail has children %v", children)
		}
	}
}

func TestGBTreeErrors(t *testing.T) {
	if _, _, err := GBTree(0, 0, 1, nil); err == nil {
		t.Fatal("n=0 should error")
	}
	if _, _, err := GBTree(5, 4, 1, nil); err == nil {
		t.Fatal("rank out of range should error")
	}
	if _, _, err := GBTree(0, 4, 0, nil); err == nil {
		t.Fatal("dim 0 should error")
	}
	if _, _, err := GBTree(0, 4, 4, nil); err == nil {
		t.Fatal("dim n should error")
	}
}

func TestGBTreeSingleton(t *testing.T) {
	parent, children, err := GBTree(0, 1, 1, nil)
	if err != nil || parent != -1 || len(children) != 0 {
		t.Fatalf("singleton tree: %d %v %v", parent, children, err)
	}
}

// Property: for every (n, dim), the parent/children relations are mutually
// consistent and the tree spans all ranks exactly once.
func TestPropertyGBTreeConsistent(t *testing.T) {
	f := func(a, b uint8) bool {
		n := int(a%60) + 1
		if n == 1 {
			return true
		}
		dim := int(b)%(n-1) + 1
		childCount := 0
		for r := 0; r < n; r++ {
			parent, children, err := GBTree(r, n, dim, nil)
			if err != nil {
				return false
			}
			if len(children) > dim {
				return false
			}
			if r == 0 && parent != -1 {
				return false
			}
			if r > 0 {
				// r must appear in its parent's child list.
				_, pc, _ := GBTree(parent, n, dim, nil)
				found := false
				for _, c := range pc {
					if c == r {
						found = true
					}
				}
				if !found {
					return false
				}
			}
			childCount += len(children)
		}
		return childCount == n-1 // spanning: every non-root is someone's child
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestTreeDepthStar ties the tree core builds to the depth model prices:
// for every n <= 60 and dim in 1..n-1 (chain through star), the deepest
// rank's walk up GBTree parents is model.GBDepth(n, dim) levels long.
func TestTreeDepthStar(t *testing.T) {
	for n := 1; n <= 60; n++ {
		for dim := 1; dim <= max(1, n-1); dim++ {
			deepest := 0
			for r := 0; r < n; r++ {
				depth := 0
				for p := r; p != 0; depth++ {
					parent, _, err := GBTree(p, n, dim, nil)
					if err != nil {
						t.Fatal(err)
					}
					p = parent
				}
				deepest = max(deepest, depth)
			}
			if want := model.GBDepth(n, dim); deepest != want {
				t.Fatalf("n=%d dim=%d: GBTree depth %d, model.GBDepth %d", n, dim, deepest, want)
			}
		}
	}
}

func TestUniformGroup(t *testing.T) {
	g := UniformGroup(4, 2)
	if len(g) != 4 {
		t.Fatalf("group size = %d", len(g))
	}
	for i, ep := range g {
		if ep.Node != network.NodeID(i) || ep.Port != 2 {
			t.Fatalf("group[%d] = %v", i, ep)
		}
	}
}

func TestNICBarrierTokenPE(t *testing.T) {
	g := UniformGroup(8, 2)
	tok, err := NICBarrierToken(mcp.PE, g, 3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tok.Alg != mcp.PE || len(tok.Peers) != 3 {
		t.Fatalf("token = %+v", tok)
	}
	// Rank 3's doubling peers: 2, 1, 7.
	want := []int{2, 1, 7}
	for i, w := range want {
		if tok.Peers[i] != g[w] {
			t.Fatalf("peer %d = %v, want %v", i, tok.Peers[i], g[w])
		}
	}
}

// TestNICBarrierTokenAllocs pins that a token's schedule and its peer or
// child list are each built once, at their exact length: a PE or GB token
// is at most three heap objects (the token, the rank list, the endpoint
// list), on flat and leaf-mapped trees and on non-powers of two.
func TestNICBarrierTokenAllocs(t *testing.T) {
	for _, n := range []int{2, 12, 16, 100, 256} {
		g := UniformGroup(n, 2)
		leafOf := make([]int, n)
		for r := range leafOf {
			leafOf[r] = r / 16
		}
		lm := NewLeafMap(leafOf)
		for _, c := range []struct {
			name string
			alg  mcp.BarrierAlg
			dim  int
			lm   *LeafMap
		}{{"pe", mcp.PE, 0, nil}, {"gb4", mcp.GB, 4, nil}, {"gb4-mapped", mcp.GB, 4, lm}} {
			dim := min(c.dim, n-1)
			for _, self := range []int{0, 1, n / 2, n - 1} {
				allocs := testing.AllocsPerRun(3, func() {
					if _, err := NICBarrierToken(c.alg, g, self, dim, c.lm); err != nil {
						t.Fatal(err)
					}
				})
				if allocs > 3 {
					t.Errorf("n=%d %s rank %d: %.0f allocations, want at most 3", n, c.name, self, allocs)
				}
			}
		}
	}
}

func TestNICBarrierTokenGB(t *testing.T) {
	g := UniformGroup(8, 2)
	tok, err := NICBarrierToken(mcp.GB, g, 0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tok.Root || len(tok.Children) != 2 {
		t.Fatalf("root token = %+v", tok)
	}
	tok, err = NICBarrierToken(mcp.GB, g, 5, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tok.Root || tok.Parent != g[2] {
		t.Fatalf("rank 5 token = %+v", tok)
	}
}

func TestNICBarrierTokenErrors(t *testing.T) {
	g := UniformGroup(4, 2)
	if _, err := NICBarrierToken(mcp.PE, g, 9, 0, nil); err == nil {
		t.Fatal("bad rank should error")
	}
	if _, err := NICBarrierToken(mcp.GB, g, 0, 0, nil); err == nil {
		t.Fatal("bad dim should error")
	}
	if _, err := NICBarrierToken(mcp.BarrierAlg(99), g, 0, 0, nil); err == nil {
		t.Fatal("bad alg should error")
	}
}

// TestGBTreeMappedNilEqualsFlat: a nil leaf map and a map that puts every
// rank on one switch are the same flat heap tree at every size and
// dimension.
func TestGBTreeMappedNilEqualsFlat(t *testing.T) {
	for _, n := range []int{1, 4, 9, 16} {
		for dim := 1; dim < n; dim++ {
			for r := 0; r < n; r++ {
				fp, fc, ferr := GBTree(r, n, dim, nil)
				mp, mc, merr := GBTree(r, n, dim, NewLeafMap(make([]int, n)))
				if ferr != nil || merr != nil || fp != mp || !equalInts(fc, mc) {
					t.Fatalf("nil leafOf diverges from one-leaf map at r=%d n=%d dim=%d: (%d %v %v) vs (%d %v %v)",
						r, n, dim, fp, fc, ferr, mp, mc, merr)
				}
			}
		}
	}
}

func TestGBTreeMappedUniformLeafEqualsFlat(t *testing.T) {
	// All ranks on the same crossbar: mapping must be a no-op.
	lm := NewLeafMap(make([]int, 16))
	for r := 0; r < 16; r++ {
		fp, fc, _ := GBTree(r, 16, 4, nil)
		mp, mc, err := GBTree(r, 16, 4, lm)
		if err != nil || fp != mp || !equalInts(fc, mc) {
			t.Fatalf("uniform leafOf diverges at r=%d", r)
		}
	}
}

// TestPropertyGBTreeMappedSpansAndLocalizes: on random leaf assignments the
// mapped tree (a) is a consistent spanning tree rooted at rank 0, and (b)
// crosses between leaf switches exactly groups-1 times — one trunk crossing
// per non-root leaf switch, never more.
func TestPropertyGBTreeMappedSpansAndLocalizes(t *testing.T) {
	f := func(a, b, seed uint8) bool {
		n := int(a%40) + 2
		dim := int(b)%(n-1) + 1
		leaves := int(seed)%4 + 1
		leafOf := make([]int, n)
		groups := map[int]bool{}
		for r := 0; r < n; r++ {
			leafOf[r] = (r*7 + int(seed)) % leaves
			groups[leafOf[r]] = true
		}
		lm := NewLeafMap(leafOf)
		crossEdges := 0
		childCount := 0
		for r := 0; r < n; r++ {
			parent, children, err := GBTree(r, n, dim, lm)
			if err != nil {
				return false
			}
			if r == 0 && parent != -1 {
				return false
			}
			if r > 0 {
				if parent < 0 || parent >= n {
					return false
				}
				_, pc, _ := GBTree(parent, n, dim, lm)
				found := false
				for _, c := range pc {
					if c == r {
						found = true
					}
				}
				if !found {
					return false
				}
				if leafOf[parent] != leafOf[r] {
					crossEdges++
				}
			}
			childCount += len(children)
		}
		return childCount == n-1 && crossEdges == len(groups)-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestGBTreeMappedErrors(t *testing.T) {
	if _, _, err := GBTree(0, 4, 1, NewLeafMap([]int{0, 0})); err == nil {
		t.Fatal("short leafOf should error")
	}
	if _, _, err := GBTree(4, 4, 1, NewLeafMap([]int{0, 0, 0, 1})); err == nil {
		t.Fatal("rank out of range should error")
	}
	if _, _, err := GBTree(0, 4, 0, NewLeafMap([]int{0, 0, 0, 1})); err == nil {
		t.Fatal("dim 0 should error")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
