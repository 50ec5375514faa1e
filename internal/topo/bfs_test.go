package topo

// The BFS routing oracle: Myrinet-style source routes computed by graph
// search, independent of the arithmetic router in algroute.go. Myrinet is
// source routed: the sending NIC prepends to each packet a list of
// output-port bytes, one per switch the packet will traverse; each switch
// strips the first byte and forwards the packet out of that port. The
// oracle models the cluster as a graph of switches and NIC interfaces and
// computes shortest port sequences with deterministic tie-breaking (lowest
// output port first), so a given topology always yields the same routes.
// It lives in a _test.go file, so no binary can link it.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// Vertex identifies a device in the topology: either a switch or a NIC.
// Callers assign IDs; the graph does not interpret them beyond equality.
type Vertex int

// VertexKind distinguishes switches (which consume route bytes) from NICs
// (which terminate routes).
type VertexKind int

const (
	// SwitchVertex is a crossbar switch; forwarding through it consumes
	// one route byte.
	SwitchVertex VertexKind = iota
	// NICVertex is a network interface; it is always an endpoint.
	NICVertex
)

type edge struct {
	to      Vertex
	outPort int // port index on the *from* vertex; meaningful for switches
}

// Graph is a topology of switches and NICs. The zero value is unusable;
// call NewGraph.
//
// Construction (AddVertex/AddEdge) is single-threaded; once built, any
// number of goroutines may Route/RoutesFrom concurrently.
type Graph struct {
	kinds map[Vertex]VertexKind
	adj   map[Vertex][]edge

	// sortMu guards the one-time in-place sort of adj below. Traversals
	// must expand edges in (outPort, to) order for deterministic
	// tie-breaking; sorting each adjacency list once on first traversal
	// (instead of copying and re-sorting it on every vertex expansion of
	// every BFS) is what keeps the per-source fallback cheap on 8192-node
	// fabrics. AddEdge marks the graph dirty again.
	sortMu sync.Mutex
	sorted bool
}

// NewGraph returns an empty topology.
func NewGraph() *Graph {
	return &Graph{kinds: make(map[Vertex]VertexKind), adj: make(map[Vertex][]edge)}
}

// AddVertex declares a device. Re-declaring with a different kind panics:
// it indicates a topology construction bug.
func (g *Graph) AddVertex(v Vertex, k VertexKind) {
	if prev, ok := g.kinds[v]; ok && prev != k {
		panic(fmt.Sprintf("bfs: vertex %d redeclared with different kind", v))
	}
	g.kinds[v] = k
}

// AddEdge declares a directed cable from one device port to another device.
// fromPort is the output-port number on `from` (used as the route byte when
// `from` is a switch; ignored for NICs, which have a single injection port).
// Call twice for a duplex cable.
func (g *Graph) AddEdge(from Vertex, fromPort int, to Vertex) {
	if _, ok := g.kinds[from]; !ok {
		panic(fmt.Sprintf("bfs: edge from undeclared vertex %d", from))
	}
	if _, ok := g.kinds[to]; !ok {
		panic(fmt.Sprintf("bfs: edge to undeclared vertex %d", to))
	}
	g.adj[from] = append(g.adj[from], edge{to: to, outPort: fromPort})
	g.sorted = false
}

// ensureSorted sorts every adjacency list into (outPort, to) order, once.
// Edge order only matters through the route bytes a traversal emits, and
// ties beyond (outPort, to) are between indistinguishable parallel cables,
// so sorting in place preserves every observable result.
func (g *Graph) ensureSorted() {
	g.sortMu.Lock()
	defer g.sortMu.Unlock()
	if g.sorted {
		return
	}
	for _, edges := range g.adj {
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].outPort != edges[j].outPort {
				return edges[i].outPort < edges[j].outPort
			}
			return edges[i].to < edges[j].to
		})
	}
	g.sorted = true
}

// Route computes the shortest source route from NIC `src` to NIC `dst`:
// the sequence of switch output-port bytes the packet must carry.
// A NIC routing to itself yields an empty route. Ties between equal-length
// paths break toward the lexicographically smallest port sequence.
func (g *Graph) Route(src, dst Vertex) ([]byte, error) {
	if k, ok := g.kinds[src]; !ok || k != NICVertex {
		return nil, fmt.Errorf("bfs: source %d is not a NIC", src)
	}
	if k, ok := g.kinds[dst]; !ok || k != NICVertex {
		return nil, fmt.Errorf("bfs: destination %d is not a NIC", dst)
	}
	if src == dst {
		return []byte{}, nil
	}

	// BFS over vertices. Paths may pass through switches only; a NIC other
	// than dst never forwards. For determinism, expand each vertex's edges
	// in sorted (outPort, to) order.
	g.ensureSorted()
	type state struct {
		v     Vertex
		route []byte
	}
	visited := map[Vertex]bool{src: true}
	queue := []state{{v: src}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range g.adj[cur.v] {
			if visited[e.to] {
				continue
			}
			var r []byte
			if g.kinds[cur.v] == SwitchVertex {
				// Leaving a switch consumes a route byte naming the port.
				r = append(append([]byte{}, cur.route...), byte(e.outPort))
			} else {
				// Leaving a NIC: injection, no route byte.
				r = append([]byte{}, cur.route...)
			}
			if e.to == dst {
				return r, nil
			}
			if g.kinds[e.to] == NICVertex {
				continue // other NICs do not forward
			}
			visited[e.to] = true
			queue = append(queue, state{v: e.to, route: r})
		}
	}
	return nil, fmt.Errorf("bfs: no path from %d to %d", src, dst)
}

// RoutesFrom computes shortest source routes from NIC src to every NIC
// reachable from it in a single BFS pass, with the same deterministic
// tie-breaking as Route: among equal-length paths, the one a BFS that
// expands each vertex's edges in sorted (outPort, to) order discovers
// first. The result maps each reachable NIC (including src, with an empty
// route) to its port-byte sequence; Route(src, dst) and RoutesFrom(src)[dst]
// are always identical.
//
// One call costs one graph traversal, so all-pairs route computation over
// n NICs is n traversals instead of n² — the difference between instant
// and minutes on a 1024-node Clos fabric.
func (g *Graph) RoutesFrom(src Vertex) (map[Vertex][]byte, error) {
	if k, ok := g.kinds[src]; !ok || k != NICVertex {
		return nil, fmt.Errorf("bfs: source %d is not a NIC", src)
	}
	out := map[Vertex][]byte{src: {}}
	g.ensureSorted()
	type state struct {
		v     Vertex
		route []byte
	}
	visited := map[Vertex]bool{src: true}
	queue := []state{{v: src}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range g.adj[cur.v] {
			if visited[e.to] {
				continue
			}
			var r []byte
			if g.kinds[cur.v] == SwitchVertex {
				r = append(append([]byte{}, cur.route...), byte(e.outPort))
			} else {
				r = append([]byte{}, cur.route...)
			}
			if g.kinds[e.to] == NICVertex {
				// First discovery wins, exactly as the per-pair BFS
				// returns on first reach of dst; NICs do not forward, so
				// they are recorded but never enqueued or marked visited.
				if _, seen := out[e.to]; !seen {
					out[e.to] = r
				}
				continue
			}
			visited[e.to] = true
			queue = append(queue, state{v: e.to, route: r})
		}
	}
	return out, nil
}

// star builds a single-switch topology: switch 0, NICs 1..n attached to
// ports 0..n-1, duplex.
func star(n int) (*Graph, []Vertex) {
	g := NewGraph()
	sw := Vertex(0)
	g.AddVertex(sw, SwitchVertex)
	nics := make([]Vertex, n)
	for i := 0; i < n; i++ {
		v := Vertex(i + 1)
		g.AddVertex(v, NICVertex)
		g.AddEdge(sw, i, v)
		g.AddEdge(v, 0, sw)
		nics[i] = v
	}
	return g, nics
}

func TestSingleSwitchRoute(t *testing.T) {
	g, nics := star(16)
	r, err := g.Route(nics[0], nics[5])
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != 1 || r[0] != 5 {
		t.Fatalf("route = %v, want [5]", r)
	}
}

func TestSelfRouteEmpty(t *testing.T) {
	g, nics := star(4)
	r, err := g.Route(nics[2], nics[2])
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != 0 {
		t.Fatalf("self route = %v, want empty", r)
	}
}

func TestRouteFromSwitchErrors(t *testing.T) {
	g, _ := star(2)
	if _, err := g.Route(Vertex(0), Vertex(1)); err == nil {
		t.Fatal("routing from a switch should error")
	}
	if _, err := g.Route(Vertex(1), Vertex(0)); err == nil {
		t.Fatal("routing to a switch should error")
	}
}

func TestRouteUnknownVertexErrors(t *testing.T) {
	g, nics := star(2)
	if _, err := g.Route(nics[0], Vertex(99)); err == nil {
		t.Fatal("routing to unknown vertex should error")
	}
}

func TestNoPathErrors(t *testing.T) {
	g := NewGraph()
	g.AddVertex(1, NICVertex)
	g.AddVertex(2, NICVertex)
	if _, err := g.Route(1, 2); err == nil {
		t.Fatal("disconnected NICs should error")
	}
}

func TestRedeclareDifferentKindPanics(t *testing.T) {
	g := NewGraph()
	g.AddVertex(1, NICVertex)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.AddVertex(1, SwitchVertex)
}

func TestEdgeFromUndeclaredPanics(t *testing.T) {
	g := NewGraph()
	g.AddVertex(1, NICVertex)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.AddEdge(2, 0, 1)
}

// twoLevel builds a 2-level topology: two leaf switches each with n/2 NICs,
// connected by an uplink on the highest port of each.
func twoLevel(n int) (*Graph, []Vertex) {
	g := NewGraph()
	swA, swB := Vertex(0), Vertex(1)
	g.AddVertex(swA, SwitchVertex)
	g.AddVertex(swB, SwitchVertex)
	half := n / 2
	nics := make([]Vertex, n)
	for i := 0; i < n; i++ {
		v := Vertex(i + 2)
		g.AddVertex(v, NICVertex)
		nics[i] = v
		sw := swA
		port := i
		if i >= half {
			sw = swB
			port = i - half
		}
		g.AddEdge(sw, port, v)
		g.AddEdge(v, 0, sw)
	}
	g.AddEdge(swA, half, swB)
	g.AddEdge(swB, half, swA)
	return g, nics
}

func TestTwoLevelRoutes(t *testing.T) {
	g, nics := twoLevel(8)
	// Same switch: one hop.
	r, err := g.Route(nics[0], nics[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != 1 || r[0] != 1 {
		t.Fatalf("same-switch route = %v, want [1]", r)
	}
	// Cross switch: two hops (uplink port 4, then dest port).
	r, err = g.Route(nics[0], nics[5])
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != 2 || r[0] != 4 || r[1] != 1 {
		t.Fatalf("cross-switch route = %v, want [4 1]", r)
	}
}

func TestAllRoutes(t *testing.T) {
	g, nics := star(4)
	for i, s := range nics {
		rows, err := g.RoutesFrom(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 {
			t.Fatalf("RoutesFrom(%d) reaches %d NICs, want 4", s, len(rows))
		}
		for j, d := range nics {
			r := rows[d]
			if i == j && len(r) != 0 {
				t.Fatalf("self route not empty: %v", r)
			}
			if i != j && (len(r) != 1 || int(r[0]) != j) {
				t.Fatalf("route %d->%d = %v", i, j, r)
			}
		}
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	// Two parallel cables between NIC's switch and dest: route must pick
	// the lowest port consistently.
	g := NewGraph()
	sw := Vertex(0)
	g.AddVertex(sw, SwitchVertex)
	a, b := Vertex(1), Vertex(2)
	g.AddVertex(a, NICVertex)
	g.AddVertex(b, NICVertex)
	g.AddEdge(a, 0, sw)
	g.AddEdge(sw, 3, b) // higher port added first
	g.AddEdge(sw, 1, b)
	for i := 0; i < 10; i++ {
		r, err := g.Route(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if len(r) != 1 || r[0] != 1 {
			t.Fatalf("route = %v, want [1] (lowest port)", r)
		}
	}
}

func TestNICsDoNotForward(t *testing.T) {
	// a - sw1 - b(NIC) ... b must not act as a via to c.
	g := NewGraph()
	g.AddVertex(0, SwitchVertex)
	g.AddVertex(1, NICVertex)
	g.AddVertex(2, NICVertex)
	g.AddVertex(3, NICVertex)
	g.AddEdge(1, 0, 0)
	g.AddEdge(0, 0, 1)
	g.AddEdge(0, 1, 2)
	g.AddEdge(2, 0, 0)
	// NIC 3 hangs only off NIC 2 (bogus cabling): unreachable via routing.
	g.AddEdge(2, 1, 3)
	if _, err := g.Route(1, 3); err == nil {
		t.Fatal("path through a NIC should not exist")
	}
}

// Property: on a random connected two-level topology every NIC pair has a
// route, route length <= 2 switches (diameter), and the route replayed
// against the adjacency actually reaches the destination.
func TestPropertyRoutesReachDestination(t *testing.T) {
	replay := func(g *Graph, src, dst Vertex, r []byte) bool {
		cur := src
		i := 0
		for steps := 0; steps < 10; steps++ {
			if cur == dst {
				return i == len(r)
			}
			k := g.kinds[cur]
			var want int
			if k == SwitchVertex {
				if i >= len(r) {
					return false
				}
				want = int(r[i])
				i++
			} else {
				want = -1 // NIC: single injection edge, take the only edge
			}
			next := Vertex(-1)
			for _, e := range g.adj[cur] {
				if k == SwitchVertex && e.outPort == want {
					next = e.to
					break
				}
				if k == NICVertex {
					next = e.to
					break
				}
			}
			if next == Vertex(-1) {
				return false
			}
			cur = next
		}
		return cur == dst && i == len(r)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)*2
		g, nics := twoLevel(n)
		for _, s := range nics {
			for _, d := range nics {
				if s == d {
					continue
				}
				r, err := g.Route(s, d)
				if err != nil {
					return false
				}
				if len(r) > 2 {
					return false
				}
				if !replay(g, s, d, r) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestRoutesFromMatchesRoute: the batched one-BFS-per-source RoutesFrom must
// agree byte-for-byte with per-pair Route for every destination, since both
// implement the same deterministic tie-breaking.
func TestRoutesFromMatchesRoute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)*2
		g, nics := twoLevel(n)
		src := nics[rng.Intn(n)]
		rows, err := g.RoutesFrom(src)
		if err != nil {
			return false
		}
		for _, d := range nics {
			if d == src {
				continue
			}
			want, err := g.Route(src, d)
			if err != nil {
				return false
			}
			got, ok := rows[d]
			if !ok || !bytes.Equal(got, want) {
				t.Logf("RoutesFrom[%d] = %v, Route = %v", d, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRoutesFromSwitchErrors(t *testing.T) {
	g, _ := twoLevel(4)
	if _, err := g.RoutesFrom(Vertex(0)); err == nil {
		t.Fatal("RoutesFrom from a switch vertex should error")
	}
}

// TestAddEdgeAfterRouting: the one-time adjacency sort must not freeze the
// graph — an edge added after a traversal re-dirties it, and the next
// traversal sees the new cable with the same lowest-port tie-breaking.
func TestAddEdgeAfterRouting(t *testing.T) {
	g := NewGraph()
	sw := Vertex(0)
	g.AddVertex(sw, SwitchVertex)
	a, b := Vertex(1), Vertex(2)
	g.AddVertex(a, NICVertex)
	g.AddVertex(b, NICVertex)
	g.AddEdge(a, 0, sw)
	g.AddEdge(sw, 3, b)
	if r, err := g.Route(a, b); err != nil || len(r) != 1 || r[0] != 3 {
		t.Fatalf("route = %v, %v, want [3]", r, err)
	}
	// A lower-port cable added after the first traversal must win the next.
	g.AddEdge(sw, 1, b)
	if r, err := g.Route(a, b); err != nil || len(r) != 1 || r[0] != 1 {
		t.Fatalf("route after AddEdge = %v, %v, want [1] (lowest port)", r, err)
	}
	rows, err := g.RoutesFrom(a)
	if err != nil || len(rows[b]) != 1 || rows[b][0] != 1 {
		t.Fatalf("RoutesFrom after AddEdge = %v, %v, want [1]", rows[b], err)
	}
}
