package topo

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// The routing oracle: the wiring plan as a Graph (bfs_test.go), per-source
// BFS over it, and the statistics read off the resulting table. Nothing
// here shares code with algroute.go, and all of it is test code, so the
// arithmetic router and the oracle stay two independent implementations.

// Vertex numbering: switch s -> 2s, NIC n -> 2n+1.

// switchVertexOf returns the Graph vertex of switch s.
func switchVertexOf(s int) Vertex { return Vertex(2 * s) }

// nicVertexOf returns the Graph vertex of node n's NIC.
func nicVertexOf(n int) Vertex { return Vertex(2*n + 1) }

// Graph returns the topology as a Graph: every switch, every NIC, every
// trunk and every NIC cable, with port numbers as edge labels.
func (t *Topology) Graph() *Graph {
	g := NewGraph()
	for s := range t.SwitchPorts {
		g.AddVertex(switchVertexOf(s), SwitchVertex)
	}
	for _, tr := range t.Trunks {
		g.AddEdge(switchVertexOf(tr.A), tr.APort, switchVertexOf(tr.B))
		g.AddEdge(switchVertexOf(tr.B), tr.BPort, switchVertexOf(tr.A))
	}
	for n, p := range t.NICs {
		g.AddVertex(nicVertexOf(n), NICVertex)
		g.AddEdge(nicVertexOf(n), 0, switchVertexOf(p.Switch))
		g.AddEdge(switchVertexOf(p.Switch), p.Port, nicVertexOf(n))
	}
	return g
}

// bfsTable computes every ordered pair's route by one Graph.RoutesFrom pass
// per source, indexed [src][dst]; a nil route means unreachable.
func bfsTable(tp *Topology) ([][][]byte, error) {
	g := tp.Graph()
	tbl := make([][][]byte, tp.Nodes())
	for s := range tbl {
		byVertex, err := g.RoutesFrom(nicVertexOf(s))
		if err != nil {
			return nil, err
		}
		row := make([][]byte, tp.Nodes())
		for d := range row {
			row[d] = byVertex[nicVertexOf(d)]
		}
		if row[s] == nil {
			row[s] = []byte{}
		}
		tbl[s] = row
	}
	return tbl, nil
}

// computeStatsWalk derives the routing geometry by walking a route table.
func computeStatsWalk(tp *Topology, tbl [][][]byte) (Stats, error) {
	st := Stats{
		Kind: tp.Spec.Kind, Nodes: tp.Nodes(), Switches: tp.Switches(),
		Trunks: len(tp.Trunks), BisectionLinks: tp.BisectionLinks,
	}
	var total, pairs int
	for s, row := range tbl {
		for d, r := range row {
			if s == d {
				continue
			}
			if r == nil {
				return st, fmt.Errorf("topo: nodes %d and %d are disconnected", s, d)
			}
			h := len(r)
			for len(st.HopsHistogram) <= h {
				st.HopsHistogram = append(st.HopsHistogram, 0)
			}
			st.HopsHistogram[h]++
			if h > st.Diameter {
				st.Diameter = h
			}
			total += h
			pairs++
		}
	}
	if pairs > 0 {
		st.AvgHops = float64(total) / float64(pairs)
	}
	return st, nil
}

// matchesOracle holds the router to the oracle on one topology: Route on
// every ordered pair byte for byte, ComputeStats field for field.
func matchesOracle(tp *Topology) error {
	want, err := bfsTable(tp)
	if err != nil {
		return err
	}
	for s, row := range want {
		for d := range row {
			got, err := tp.Route(s, d)
			if err != nil {
				return fmt.Errorf("%+v: Route(%d,%d): %v", tp.Spec, s, d, err)
			}
			if !bytes.Equal(got, row[d]) {
				return fmt.Errorf("%+v: route %d->%d = %x, BFS says %x",
					tp.Spec, s, d, got, row[d])
			}
		}
	}
	gotStats := tp.ComputeStats()
	wantStats, err := computeStatsWalk(tp, want)
	if err != nil {
		return fmt.Errorf("%+v: walk: %v", tp.Spec, err)
	}
	if !reflect.DeepEqual(gotStats, wantStats) {
		return fmt.Errorf("%+v: closed-form stats %+v != walked stats %+v", tp.Spec, gotStats, wantStats)
	}
	return nil
}

// TestGraphMatchesVertexConvention pins the oracle's own conventions: port
// numbers are the edge labels and vertices follow 2s / 2n+1.
func TestGraphMatchesVertexConvention(t *testing.T) {
	tp := mustBuild(t, Spec{Kind: Single, Nodes: 4, Radix: 4})
	g := tp.Graph()
	r, err := g.Route(nicVertexOf(1), nicVertexOf(2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, []byte{2}) {
		t.Fatalf("route = %v, want [2]", r)
	}
	if switchVertexOf(3) != Vertex(6) || nicVertexOf(3) != Vertex(7) {
		t.Fatal("vertex numbering drifted from the 2s/2n+1 convention")
	}
}
