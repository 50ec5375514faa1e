package topo

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
//     the trunk port (radix-1 on both crossbars) first: [trunk, dstPort].
//     Paths are unique.
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
// A route thus depends only on its destination and on the pair's locality
// class: same leaf (edge), same pod, or across. newAlgRouter lays out one
// row per destination holding that destination's route for each class the
// kind has — 1, 3, 4 and 9 bytes for single, twoswitch, star/clos2 and
// clos3 — and route hands out a sub-slice of the row. Each class's route
// is stored whole, not as a suffix of a longer one, so a rule that picks
// uplinks by destination (d-mod-k) changes only the row fill. At 8192
// nodes the table is 72 KB, against the O(n²) routes a per-pair table
// would hold.

// algRouter serves a built topology's source routes from its route table.
type algRouter struct {
	// per is the nodes per leaf switch (clos3: per edge switch) — node i
	// sits on leaf i/per at port i%per — and pod the nodes per pod (clos3:
	// h², every other kind: n, one pod). Single is the one-leaf case
	// (per = n); TwoSwitch has two leaves of (n+1)/2.
	per, pod int
	// Class c's route is bytes cut[c] to cut[c+1] of a row; the classes
	// are same leaf, same pod and across, one the kind lacks is empty, and
	// cut[3] is the row length.
	cut [4]int
	// table is the n rows, destination after destination.
	table []byte
}

// emptyRoute is the shared self-route.
var emptyRoute = []byte{}

// newAlgRouter returns the router for a spec Build has validated, its
// radix made explicit.
func newAlgRouter(sp Spec) *algRouter {
	n, r := sp.Nodes, sp.Radix
	a := &algRouter{per: n, pod: n}
	switch sp.Kind {
	case Single:
		a.cut = [4]int{0, 1, 1, 1}
	case TwoSwitch:
		a.per, a.cut = (n+1)/2, [4]int{0, 1, 3, 3}
	case Star, Clos2:
		a.per, a.cut = sp.perLeaf(), [4]int{0, 1, 4, 4}
	case Clos3:
		a.per, a.pod, a.cut = r/2, r/2*(r/2), [4]int{0, 1, 4, 9}
	}
	a.table = make([]byte, 0, n*a.cut[3])
	for d := 0; d < n; d++ {
		port, leaf := byte(d%a.per), byte(d/a.per)
		switch sp.Kind {
		case Single:
			a.table = append(a.table, port)
		case TwoSwitch:
			a.table = append(a.table, port, byte(r-1), port)
		case Star:
			a.table = append(a.table, port, byte(r-1), leaf, port)
		case Clos2:
			a.table = append(a.table, port, byte(r/2), leaf, port)
		case Clos3:
			h, edge := byte(a.per), byte(d%a.pod/a.per)
			a.table = append(a.table, port, h, edge, port, h, h, byte(d/a.pod), edge, port)
		}
	}
	return a
}

// class returns the locality class of a distinct pair: 0 on one leaf, 1
// in one pod, 2 across pods.
func (a *algRouter) class(src, dst int) int {
	switch {
	case src/a.per == dst/a.per:
		return 0
	case src/a.pod == dst/a.pod:
		return 1
	default:
		return 2
	}
}

// route returns the route for the ordered pair, a sub-slice of the table
// whose capacity ends with it. src and dst are in range (the caller
// validated them).
func (a *algRouter) route(src, dst int) []byte {
	if src == dst {
		return emptyRoute
	}
	c, row := a.class(src, dst), dst*a.cut[3]
	i, j := row+a.cut[c], row+a.cut[c+1]
	return a.table[i:j:j]
}

// stats fills the routing geometry of st (Diameter, AvgHops,
// HopsHistogram) in closed form, by counting ordered pairs per locality
// class instead of walking an O(n²) route table — at 8192 nodes the table
// is 67M routes, the class counts are a handful of integer sums.
func (a *algRouter) stats(st *Stats) {
	n := st.Nodes
	if n < 2 {
		return
	}
	total := int64(n) * int64(n-1)
	// samePairs sums ordered same-group pairs for n nodes packed
	// contiguously into groups of size per (the last group partial).
	samePairs := func(per int) int64 {
		full := n / per
		rem := n % per
		return int64(full)*int64(per)*int64(per-1) + int64(rem)*int64(rem-1)
	}
	sameLeaf, samePod := samePairs(a.per), samePairs(a.pod)
	pairs := [3]int64{sameLeaf, samePod - sameLeaf, total - samePod}
	var byLen [6]int64 // the longest route is clos3's 5 bytes
	for c, p := range pairs {
		byLen[a.cut[c+1]-a.cut[c]] += p // a class the kind lacks adds 0
	}
	// Trim trailing empty lengths so the histogram length and diameter
	// match what a walk over the route table produces.
	hist := byLen[:]
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
