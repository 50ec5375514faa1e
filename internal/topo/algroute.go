package topo

import "sync"

// Algebraic source routing.
//
// Every kind wires its switches from closed-form address arithmetic, so the
// route between two nodes is itself closed-form: where paths tie, the
// lexicographically smallest shortest port sequence always climbs through
// the lowest-numbered common ancestor (uplink 0) and descends by the
// destination's own address digits. This file derives each (src, dst) route
// in O(1) from that arithmetic — the only routing path in the module. The
// per-source BFS in bfs_test.go, which costs ~1 s for all pairs at 1024
// nodes and quadratic beyond, is the independent oracle: the property,
// table, golden and fuzz tests (algroute_test.go, oracle_test.go) hold the
// arithmetic to it byte for byte.
//
// Why bit-identical and not merely equivalent: routes are wire-visible
// (each byte is consumed by a physical switch) and the simulator's
// determinism contract pins exact event timing, so a route that differed
// only in which equal-cost spine it crossed would still shift contention
// and break golden figures.
//
// The derivations, per kind (see the builders in topo.go for the wiring):
//
//   - Single: node i sits on port i of the one crossbar: [dst].
//   - TwoSwitch: the first half = (n+1)/2 nodes sit on crossbar 0 at port i,
//     the rest on crossbar 1 at port i-half. Same side [dstPort]; across,
//     the source crossbar's trunk port first: [trunk, dstPort]. Paths are
//     unique. The two trunk ports differ on expanded crossbars, so they are
//     read from the built plan, not re-derived.
//   - Star: node i sits on leaf i/per, port i%per. Same-leaf routes are the
//     single byte [dstPort]. Cross-leaf routes climb the leaf's only uplink
//     (port radix-1), cross the root (whose port l faces leaf l), and exit
//     the destination leaf: [radix-1, dstLeaf, dstPort].
//   - Clos2: node i sits on leaf i/down, port i%down; leaf uplink s (port
//     radix/2+s) faces spine s, whose port l faces leaf l. Every spine
//     gives an equal-length path; BFS's lowest-port tie-break always picks
//     spine 0: [radix/2, dstLeaf, dstPort].
//   - Clos3 (k-ary fat-tree, h = k/2): node i is (pod, edge, port) =
//     (i/h², (i%h²)/h, i%h). Edge uplink a (port h+a) faces aggregation a;
//     aggregation uplink j (port h+j) faces core switch (a, j), whose port
//     p faces pod p; descending, aggregation port e faces edge e. The
//     tie-break picks aggregation 0 and core (0,0): same-edge [dstPort],
//     same-pod [h, dstEdge, dstPort], cross-pod [h, h, dstPod, dstEdge,
//     dstPort].
//
// Routes at scale are memoized per ordered pair rather than per source
// row: a barrier at 8192 nodes touches O(n·dim) pairs, while materializing
// full rows would commit O(n²) slices (~1.6 GB) for routes nothing sends.

// algRouter computes a built topology's source routes from address
// arithmetic.
type algRouter struct {
	kind Kind
	n    int

	// Every kind but Clos3: nodes per leaf switch — node i sits on leaf
	// i/per at port i%per. Single is the one-leaf case (per = n); TwoSwitch
	// has two leaves of half = (n+1)/2.
	per int
	// Star and Clos2: the uplink route byte (star: radix-1, the single root
	// uplink; clos2: radix/2, the port facing spine 0).
	uplink byte
	// TwoSwitch: each crossbar's trunk port.
	trunk [2]byte

	// Clos3: half-radix and nodes per pod (h and h²).
	h, perPod int

	// memo caches computed routes per ordered (src, dst) pair, keyed
	// src*n+dst. Guarded by a RWMutex: in the steady state every transmit
	// is a read hit, and a Topology is shared across the worker pool's
	// concurrent simulations (see the Build plan cache).
	mu   sync.RWMutex
	memo map[int64][]byte
}

// emptyRoute is the shared self-route.
var emptyRoute = []byte{}

// newAlgRouter returns the router for a built topology.
func newAlgRouter(t *Topology) *algRouter {
	sp := t.Spec
	a := &algRouter{kind: sp.Kind, n: sp.Nodes, memo: make(map[int64][]byte)}
	switch sp.Kind {
	case Single:
		a.per = sp.Nodes
	case TwoSwitch:
		a.per = (sp.Nodes + 1) / 2
		a.trunk = [2]byte{byte(t.Trunks[0].APort), byte(t.Trunks[0].BPort)}
	case Star:
		a.per, a.uplink = sp.perLeaf(), byte(sp.Radix-1)
	case Clos2:
		a.per, a.uplink = sp.perLeaf(), byte(sp.Radix/2)
	case Clos3:
		a.h = sp.Radix / 2
		a.perPod = a.h * a.h
	}
	return a
}

// compute derives the route without touching the memo. src and dst are
// in-range (the caller validated them).
func (a *algRouter) compute(src, dst int) []byte {
	if src == dst {
		return emptyRoute
	}
	if a.kind == Clos3 {
		h := a.h
		sp, dp := src/a.perPod, dst/a.perPod
		se, de := (src%a.perPod)/h, (dst%a.perPod)/h
		port := byte(dst % h)
		switch {
		case sp == dp && se == de:
			return []byte{port}
		case sp == dp:
			return []byte{byte(h), byte(de), port}
		default:
			return []byte{byte(h), byte(h), byte(dp), byte(de), port}
		}
	}
	sl, dl := src/a.per, dst/a.per
	port := byte(dst % a.per)
	switch {
	case sl == dl:
		return []byte{port}
	case a.kind == TwoSwitch:
		return []byte{a.trunk[sl], port}
	default: // Star, Clos2
		return []byte{a.uplink, byte(dl), port}
	}
}

// route returns the memoized route for the ordered pair.
func (a *algRouter) route(src, dst int) []byte {
	key := int64(src)*int64(a.n) + int64(dst)
	a.mu.RLock()
	r, ok := a.memo[key]
	a.mu.RUnlock()
	if ok {
		return r
	}
	r = a.compute(src, dst)
	a.mu.Lock()
	a.memo[key] = r
	a.mu.Unlock()
	return r
}

// stats fills the routing geometry of st (Diameter, AvgHops,
// HopsHistogram) in closed form, by counting ordered pairs per locality
// class instead of walking an O(n²) route table — at 8192 nodes the table
// is 67M routes, the class counts are a handful of integer sums.
func (a *algRouter) stats(st *Stats) {
	n := a.n
	if n < 2 {
		return
	}
	total := int64(n) * int64(n-1)
	// samePairs sums ordered same-group pairs for n nodes packed
	// contiguously into groups of size per (the last group partial).
	samePairs := func(per int) int64 {
		if per <= 0 {
			return 0
		}
		full := n / per
		rem := n % per
		return int64(full)*int64(per)*int64(per-1) + int64(rem)*int64(rem-1)
	}
	var hist []int64
	switch a.kind {
	case Single, TwoSwitch:
		same := samePairs(a.per)
		hist = []int64{0, same, total - same}
	case Star, Clos2:
		same := samePairs(a.per)
		hist = []int64{0, same, 0, total - same}
	case Clos3:
		sameEdge := samePairs(a.h)
		samePod := samePairs(a.perPod) - sameEdge
		hist = []int64{0, sameEdge, 0, samePod, 0, total - sameEdge - samePod}
	}
	// Trim trailing empty classes so the histogram length and diameter
	// match what a walk over the route table produces.
	for len(hist) > 1 && hist[len(hist)-1] == 0 {
		hist = hist[:len(hist)-1]
	}
	var sum int64
	st.HopsHistogram = make([]int, len(hist))
	for h, c := range hist {
		st.HopsHistogram[h] = int(c)
		sum += int64(h) * c
		if c > 0 {
			st.Diameter = h
		}
	}
	st.AvgHops = float64(sum) / float64(total)
}
