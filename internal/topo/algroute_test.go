package topo

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

var updateRoutes = flag.Bool("update", false,
	"rewrite the golden route files under testdata")

// randomAlgSpec draws a spec of any kind: radix ∈ {4, 8, 16}; a single
// crossbar's radix above or below n (it grows to fit); LeafNodes sometimes
// capped; size anywhere from one node — odd or even — to capacity (clamped
// to keep the BFS oracle fast).
func randomAlgSpec(r *rand.Rand) Spec {
	kinds := Kinds()
	radices := []int{4, 8, 16}
	sp := Spec{Kind: kinds[r.Intn(len(kinds))], Radix: radices[r.Intn(len(radices))]}
	switch {
	case sp.Kind == Star && r.Intn(2) == 1:
		sp.LeafNodes = 1 + r.Intn(sp.Radix-1)
	case sp.Kind == Clos2 && r.Intn(2) == 1:
		sp.LeafNodes = 1 + r.Intn(sp.Radix/2)
	}
	max := sp.Capacity()
	if max > 144 {
		max = 144
	}
	sp.Nodes = 1 + r.Intn(max)
	return sp
}

// TestAlgRouteEquivalence is the core property: for every spec shape of
// every kind, the arithmetic routes are bit-identical to the
// deterministic-BFS rows on the full ordered-pair table, and the closed-form
// statistics equal the walk over those rows.
func TestAlgRouteEquivalence(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 120,
		Rand:     rand.New(rand.NewSource(1)),
		Values: func(v []reflect.Value, r *rand.Rand) {
			v[0] = reflect.ValueOf(randomAlgSpec(r))
		},
	}
	seen := make(map[Kind]int)
	prop := func(sp Spec) bool {
		tp, err := Build(sp)
		if err != nil {
			t.Errorf("Build(%+v): %v", sp, err)
			return false
		}
		if err := matchesOracle(tp); err != nil {
			t.Error(err)
			return false
		}
		seen[sp.Kind]++
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
	for _, k := range Kinds() {
		if seen[k] < 10 {
			t.Errorf("only %d %v specs drawn", seen[k], k)
		}
	}
}

// TestAlgRouteEdges pins the crossbar kinds' edges against the oracle: the
// smallest sizes (one side of a twoswitch empty, then one node each), the
// capacity limits where a port byte reaches 255, and every size a radix-4
// and a radix-16 twoswitch holds.
func TestAlgRouteEdges(t *testing.T) {
	var specs []Spec
	for _, k := range []Kind{Single, TwoSwitch} {
		for n := 1; n <= 3; n++ {
			specs = append(specs, Spec{Kind: k, Nodes: n, Radix: 16})
		}
	}
	specs = append(specs,
		Spec{Kind: Single, Nodes: 256, Radix: 16},
		Spec{Kind: TwoSwitch, Nodes: 509, Radix: 256},
		Spec{Kind: TwoSwitch, Nodes: 510, Radix: 256},
	)
	for n := 1; n <= 6; n++ {
		specs = append(specs, Spec{Kind: TwoSwitch, Nodes: n, Radix: 4})
	}
	for n := 4; n <= 30; n++ {
		specs = append(specs, Spec{Kind: TwoSwitch, Nodes: n, Radix: 16})
	}
	for _, sp := range specs {
		if err := matchesOracle(mustBuild(t, sp)); err != nil {
			t.Error(err)
		}
	}
}

// TestRoutesAreTableViews: routes are views of the plan's one route table.
// On a clos3-256 plan a RouteTable allocates only its n + 1 row slices,
// each Build returns a new plan, Route allocates nothing even on a fresh
// plan, and every route's capacity ends with it, so a caller's append
// cannot overwrite the bytes of the neighbouring class route.
func TestRoutesAreTableViews(t *testing.T) {
	sp := Spec{Kind: Clos3, Nodes: 256, Radix: 16}
	tp := mustBuild(t, sp)
	n := tp.Nodes()
	var tbl [][][]byte
	runtime.GC() // start the collector's workers: their allocations are not RouteTable's
	if got := testing.AllocsPerRun(5, func() { tbl, _ = tp.RouteTable() }); got != float64(n+1) {
		t.Errorf("RouteTable allocates %v objects, want %d", got, n+1)
	}
	fresh := mustBuild(t, sp)
	if fresh == tp {
		t.Fatal("a second Build returned the first plan")
	}
	pairs := [][2]int{{0, 1}, {0, 9}, {0, 255}, {200, 3}, {7, 7}}
	if got := testing.AllocsPerRun(5, func() {
		for _, p := range pairs {
			fresh.Route(p[0], p[1])
		}
	}); got != 0 {
		t.Errorf("Route on a fresh plan allocates %v objects", got)
	}
	for s, row := range tbl {
		for d, r := range row {
			if cap(r) != len(r) {
				t.Fatalf("route %d->%d: len %d, cap %d", s, d, len(r), cap(r))
			}
		}
	}
	// An append to the same-edge route must leave the same-pod route as it
	// was.
	r, _ := tp.Route(1, 0)
	far, _ := tp.Route(9, 0)
	want := append([]byte(nil), far...)
	_ = append(r, 0xff)
	if got, _ := tp.Route(9, 0); !bytes.Equal(got, want) {
		t.Fatalf("append to a route changed its neighbour: %x, want %x", got, want)
	}
}

// portDest resolves one switch output port to its neighbor.
type portDest struct {
	toSwitch int // -1 when the port faces a NIC (or is dark)
	toNIC    int // -1 when the port faces a switch (or is dark)
}

func portMap(tp *Topology) [][]portDest {
	m := make([][]portDest, len(tp.SwitchPorts))
	for s, ports := range tp.SwitchPorts {
		m[s] = make([]portDest, ports)
		for p := range m[s] {
			m[s][p] = portDest{toSwitch: -1, toNIC: -1}
		}
	}
	for _, tr := range tp.Trunks {
		m[tr.A][tr.APort] = portDest{toSwitch: tr.B, toNIC: -1}
		m[tr.B][tr.BPort] = portDest{toSwitch: tr.A, toNIC: -1}
	}
	for nic, pl := range tp.NICs {
		m[pl.Switch][pl.Port] = portDest{toSwitch: -1, toNIC: nic}
	}
	return m
}

// walkRoute replays a route byte-by-byte through the wiring plan: every
// byte must name a live port on the current switch (one byte per hop),
// intermediate hops must land on switches, and the final byte must exit
// onto dst's NIC cable.
func walkRoute(tp *Topology, m [][]portDest, src, dst int, r []byte) error {
	if src == dst {
		if len(r) != 0 {
			return fmt.Errorf("self-route %d->%d not empty: %x", src, dst, r)
		}
		return nil
	}
	cur := tp.NICs[src].Switch
	for i, b := range r {
		if int(b) >= len(m[cur]) {
			return fmt.Errorf("route %d->%d hop %d: port %d beyond switch %d's %d ports",
				src, dst, i, b, cur, len(m[cur]))
		}
		d := m[cur][int(b)]
		if i == len(r)-1 {
			if d.toNIC != dst {
				return fmt.Errorf("route %d->%d final hop: switch %d port %d reaches NIC %d",
					src, dst, cur, b, d.toNIC)
			}
		} else {
			if d.toSwitch < 0 {
				return fmt.Errorf("route %d->%d hop %d: switch %d port %d is not a trunk",
					src, dst, i, cur, b)
			}
			cur = d.toSwitch
		}
	}
	return nil
}

// TestAlgRouteInvariants checks route validity on a deterministic spec
// grid: hop count never exceeds the diameter, every hop names a real
// port, and each route walks switch-to-switch until the final byte exits
// onto the destination NIC.
func TestAlgRouteInvariants(t *testing.T) {
	var specs []Spec
	for _, k := range Kinds() {
		for _, r := range []int{4, 8, 16} {
			// The single crossbar grows, so radix 4 runs below n and 16
			// above it.
			sp := Spec{Kind: k, Radix: r}
			max := sp.Capacity()
			if max > 96 {
				max = 96
			}
			for _, n := range []int{1, 2, max/2 + 1, max} {
				sp.Nodes = n
				specs = append(specs, sp)
			}
		}
	}
	specs = append(specs,
		Spec{Kind: Star, Radix: 8, Nodes: 20, LeafNodes: 3},
		Spec{Kind: Clos2, Radix: 8, Nodes: 14, LeafNodes: 2},
	)
	for _, sp := range specs {
		tp := mustBuild(t, sp)
		st := tp.ComputeStats()
		m := portMap(tp)
		n := tp.Nodes()
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				r, err := tp.Route(s, d)
				if err != nil {
					t.Fatalf("%+v: Route(%d,%d): %v", sp, s, d, err)
				}
				if s != d && len(r) > st.Diameter {
					t.Fatalf("%+v: route %d->%d has %d hops, diameter %d",
						sp, s, d, len(r), st.Diameter)
				}
				if err := walkRoute(tp, m, s, d, r); err != nil {
					t.Fatalf("%+v: %v", sp, err)
				}
			}
		}
	}
}

// TestAlgStatsMatchWalk pins the closed-form statistics to the
// route-table walk on specs covering every locality split: single-leaf,
// partial last group, LeafNodes caps, one node, full capacity, both
// crossbar kinds.
func TestAlgStatsMatchWalk(t *testing.T) {
	specs := []Spec{
		{Kind: Single, Radix: 16, Nodes: 1},
		{Kind: Single, Radix: 16, Nodes: 16},
		{Kind: Single, Radix: 4, Nodes: 9},     // grown to 9 ports
		{Kind: TwoSwitch, Radix: 16, Nodes: 2}, // one node a side: no 1-hop pair
		{Kind: TwoSwitch, Radix: 16, Nodes: 26},
		{Kind: TwoSwitch, Radix: 6, Nodes: 9}, // 5 + 4
		{Kind: Star, Radix: 4, Nodes: 1},
		{Kind: Star, Radix: 4, Nodes: 3},  // one leaf only
		{Kind: Star, Radix: 4, Nodes: 11}, // partial last leaf
		{Kind: Star, Radix: 8, Nodes: 20, LeafNodes: 3},
		{Kind: Clos2, Radix: 4, Nodes: 2},
		{Kind: Clos2, Radix: 8, Nodes: 30},
		{Kind: Clos2, Radix: 8, Nodes: 14, LeafNodes: 2},
		{Kind: Clos3, Radix: 4, Nodes: 2},
		{Kind: Clos3, Radix: 4, Nodes: 16},
		{Kind: Clos3, Radix: 8, Nodes: 100}, // partial pod, partial edge
		{Kind: Clos3, Radix: 2, Nodes: 2},   // degenerate h=1: all cross-pod
	}
	for _, sp := range specs {
		if err := matchesOracle(mustBuild(t, sp)); err != nil {
			t.Fatal(err)
		}
	}
}

// routeString renders one route for the golden files.
func routeString(r []byte) string {
	if len(r) == 0 {
		return "-"
	}
	parts := make([]string, len(r))
	for i, b := range r {
		parts[i] = fmt.Sprintf("%02x", b)
	}
	return strings.Join(parts, " ")
}

func goldenCompare(t *testing.T, path, got string) {
	t.Helper()
	if *updateRoutes {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Fatalf("%s: route bytes changed — an up-link choice was reordered.\n got:\n%s\nwant:\n%s",
			path, got, string(want))
	}
}

// TestGoldenRoutesClos3_16 pins every route byte of the paper-scale
// 16-node fat-tree (radix 4). A refactor that silently reorders up-link
// selection fails against the checked-in listing.
func TestGoldenRoutesClos3_16(t *testing.T) {
	tp := mustBuild(t, Spec{Kind: Clos3, Nodes: 16, Radix: 4})
	var sb strings.Builder
	fmt.Fprintf(&sb, "# clos3 radix 4, 16 nodes: full source-route table\n")
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			r, err := tp.Route(s, d)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "%d->%d: %s\n", s, d, routeString(r))
		}
	}
	goldenCompare(t, filepath.Join("testdata", "algroute_clos3_16.golden"), sb.String())
}

// TestGoldenRoutesClos3_1024 pins the 1024-node radix-16 fat-tree: a
// SHA-256 over the full million-route table plus a strided sample listed
// in the clear for debuggability.
func TestGoldenRoutesClos3_1024(t *testing.T) {
	tp := mustBuild(t, Spec{Kind: Clos3, Nodes: 1024, Radix: 16})
	h := sha256.New()
	for s := 0; s < 1024; s++ {
		for d := 0; d < 1024; d++ {
			r, err := tp.Route(s, d)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%d>%d:%x\n", s, d, r)
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "# clos3 radix 16, 1024 nodes\n")
	fmt.Fprintf(&sb, "sha256(full table) = %x\n", h.Sum(nil))
	for i := 0; i < 64; i++ {
		s, d := (i*131)%1024, (i*257+7)%1024
		r, err := tp.Route(s, d)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%d->%d: %s\n", s, d, routeString(r))
	}
	goldenCompare(t, filepath.Join("testdata", "algroute_clos3_1024.golden"), sb.String())
}

// FuzzAlgRouteSpec: an arbitrary Spec of any kind must either be rejected
// by the builder or produce routes and statistics identical to the BFS
// oracle's — and never panic.
func FuzzAlgRouteSpec(f *testing.F) {
	f.Add(int(Star), 16, 8, 0)
	f.Add(int(Star), 3, 2, 1)
	f.Add(int(Clos2), 24, 8, 3)
	f.Add(int(Clos2), 20, 0, 0)
	f.Add(int(Clos3), 54, 6, 0)
	f.Add(int(Clos3), 16, 4, 0)
	f.Add(int(Single), 7, 0, 0)
	f.Add(int(TwoSwitch), 26, 16, 0)
	f.Add(int(Clos3), 2, 2, 0)
	f.Add(int(Single), 1, 1, 0)
	f.Add(int(Single), 16, 16, 0)
	f.Add(int(TwoSwitch), 1, 0, 0)
	f.Add(int(TwoSwitch), 2, 4, 0)
	f.Add(int(TwoSwitch), 9, 6, 0)
	f.Add(int(TwoSwitch), 30, 16, 0)
	f.Add(int(TwoSwitch), 125, 64, 0)
	f.Fuzz(func(t *testing.T, kind, nodes, radix, leafNodes int) {
		if nodes > 160 || radix > 64 {
			t.Skip("oracle too slow past these bounds")
		}
		tp, err := Build(Spec{Kind: Kind(kind), Nodes: nodes, Radix: radix, LeafNodes: leafNodes})
		if err != nil {
			return // rejected is a valid outcome
		}
		if err := matchesOracle(tp); err != nil {
			t.Fatal(err)
		}
	})
}
