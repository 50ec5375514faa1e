package topo

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// mustBuild is Build for specs a test knows valid; it fails the test on
// error.
func mustBuild(t testing.TB, spec Spec) *Topology {
	t.Helper()
	tp, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("mesh"); err == nil {
		t.Fatal("ParseKind accepted an unknown kind")
	}
}

func TestSingleLayout(t *testing.T) {
	tp := mustBuild(t, Spec{Kind: Single, Nodes: 16, Radix: 16})
	if got := tp.SwitchPorts; !reflect.DeepEqual(got, []int{16}) {
		t.Fatalf("switch ports = %v", got)
	}
	for i, p := range tp.NICs {
		if p.Switch != 0 || p.Port != i {
			t.Fatalf("node %d at %+v, want switch 0 port %d", i, p, i)
		}
	}
	if len(tp.Trunks) != 0 {
		t.Fatalf("single crossbar has trunks: %v", tp.Trunks)
	}
}

func TestSingleExpandsWhenAllowed(t *testing.T) {
	tp := mustBuild(t, Spec{Kind: Single, Nodes: 40, Radix: 16, AllowExpand: true})
	if tp.SwitchPorts[0] != 40 {
		t.Fatalf("expanded crossbar has %d ports, want 40", tp.SwitchPorts[0])
	}
	if _, err := Build(Spec{Kind: Single, Nodes: 40, Radix: 16}); err == nil {
		t.Fatal("strict single accepted 40 nodes on 16 ports")
	}
}

// TestExpansionStopsAtRouteByte: source routes name output ports in one
// byte, so no switch may exceed 256 ports — an expanded crossbar past 256
// nodes must be rejected, not silently misroute.
func TestExpansionStopsAtRouteByte(t *testing.T) {
	if tp := mustBuild(t, Spec{Kind: Single, Nodes: 256, Radix: 16, AllowExpand: true}); tp.SwitchPorts[0] != 256 {
		t.Fatalf("256-node crossbar ports = %d", tp.SwitchPorts[0])
	}
	if _, err := Build(Spec{Kind: Single, Nodes: 257, Radix: 16, AllowExpand: true}); err == nil {
		t.Fatal("crossbar past the route-byte limit accepted")
	}
	if _, err := Build(Spec{Kind: TwoSwitch, Nodes: 512, Radix: 16, AllowExpand: true}); err == nil {
		t.Fatal("twoswitch past the route-byte limit accepted")
	}
	if tp := mustBuild(t, Spec{Kind: Clos3, Nodes: 512, Radix: 16}); tp.Nodes() != 512 {
		t.Fatal("fixed-radix fabric should carry 512 nodes fine")
	}
}

// TestTwoSwitchLegacyLayout pins the wiring the historical cluster.New
// TwoLevel path used, which the topo builder must reproduce exactly: nodes
// split half-and-half, trunk on each crossbar's last port.
func TestTwoSwitchLegacyLayout(t *testing.T) {
	tp := mustBuild(t, Spec{Kind: TwoSwitch, Nodes: 8, Radix: 8})
	if !reflect.DeepEqual(tp.SwitchPorts, []int{8, 8}) {
		t.Fatalf("switch ports = %v", tp.SwitchPorts)
	}
	if !reflect.DeepEqual(tp.Trunks, []Trunk{{A: 0, APort: 7, B: 1, BPort: 7}}) {
		t.Fatalf("trunks = %v", tp.Trunks)
	}
	for i, p := range tp.NICs {
		want := NICPlace{Switch: 0, Port: i}
		if i >= 4 {
			want = NICPlace{Switch: 1, Port: i - 4}
		}
		if p != want {
			t.Fatalf("node %d at %+v, want %+v", i, p, want)
		}
	}
}

// TestTwoSwitchExpansion pins the historical auto-expansion: when the first
// half plus the uplink does not fit, crossbar A grows to half+1 ports and
// crossbar B to (n-half)+1.
func TestTwoSwitchExpansion(t *testing.T) {
	tp := mustBuild(t, Spec{Kind: TwoSwitch, Nodes: 32, Radix: 8, AllowExpand: true})
	if !reflect.DeepEqual(tp.SwitchPorts, []int{17, 17}) {
		t.Fatalf("expanded ports = %v, want [17 17]", tp.SwitchPorts)
	}
	if !reflect.DeepEqual(tp.Trunks, []Trunk{{A: 0, APort: 16, B: 1, BPort: 16}}) {
		t.Fatalf("trunks = %v", tp.Trunks)
	}
	if _, err := Build(Spec{Kind: TwoSwitch, Nodes: 32, Radix: 8}); err == nil {
		t.Fatal("strict twoswitch accepted 32 nodes on radix 8")
	}
}

func TestStarLayout(t *testing.T) {
	// Radix 5: 4 nodes per leaf, 12 nodes -> 3 leaves + 1 root.
	tp := mustBuild(t, Spec{Kind: Star, Nodes: 12, Radix: 5})
	if tp.Switches() != 4 {
		t.Fatalf("switches = %d, want 4", tp.Switches())
	}
	if !reflect.DeepEqual(tp.Levels, []int{0, 0, 0, 1}) {
		t.Fatalf("levels = %v", tp.Levels)
	}
	if len(tp.Trunks) != 3 {
		t.Fatalf("trunks = %v", tp.Trunks)
	}
	for l, tr := range tp.Trunks {
		want := Trunk{A: l, APort: 4, B: 3, BPort: l}
		if tr != want {
			t.Fatalf("trunk %d = %+v, want %+v", l, tr, want)
		}
	}
	if got := tp.LeafOf(); !reflect.DeepEqual(got, []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2}) {
		t.Fatalf("LeafOf = %v", got)
	}
}

func TestStarLeafNodesSpreads(t *testing.T) {
	// LeafNodes 2 forces 4 nodes across two leaves even though one leaf
	// could hold them all.
	tp := mustBuild(t, Spec{Kind: Star, Nodes: 4, Radix: 8, LeafNodes: 2})
	if got := tp.LeafOf(); !reflect.DeepEqual(got, []int{0, 0, 1, 1}) {
		t.Fatalf("LeafOf = %v", got)
	}
}

func TestClos2Layout(t *testing.T) {
	// Radix 4: 2 node ports per leaf, 2 spines; 8 nodes -> 4 leaves.
	tp := mustBuild(t, Spec{Kind: Clos2, Nodes: 8, Radix: 4})
	if tp.Switches() != 6 {
		t.Fatalf("switches = %d, want 6", tp.Switches())
	}
	// Every leaf connects to every spine.
	if len(tp.Trunks) != 8 {
		t.Fatalf("trunks = %d, want 8", len(tp.Trunks))
	}
	seen := map[[2]int]bool{}
	for _, tr := range tp.Trunks {
		seen[[2]int{tr.A, tr.B}] = true
	}
	for l := 0; l < 4; l++ {
		for s := 4; s < 6; s++ {
			if !seen[[2]int{l, s}] {
				t.Fatalf("leaf %d not cabled to spine %d", l, s)
			}
		}
	}
}

func TestClos3Layout(t *testing.T) {
	// k=4: 2 pods of 2+2 switches hold 8 nodes; core is 4 switches.
	tp := mustBuild(t, Spec{Kind: Clos3, Nodes: 8, Radix: 4})
	if tp.Switches() != 2*4+4 {
		t.Fatalf("switches = %d, want 12", tp.Switches())
	}
	// Per pod: 2 edges x 2 aggs + 2 aggs x 2 cores = 8 trunks.
	if len(tp.Trunks) != 16 {
		t.Fatalf("trunks = %d, want 16", len(tp.Trunks))
	}
	if _, err := Build(Spec{Kind: Clos3, Nodes: 8, Radix: 5}); err == nil {
		t.Fatal("clos3 accepted an odd radix")
	}
}

func TestClos3FullScale(t *testing.T) {
	tp := mustBuild(t, Spec{Kind: Clos3, Nodes: 1024, Radix: 16})
	if tp.Switches() != 16*16+64 {
		t.Fatalf("switches = %d, want 320", tp.Switches())
	}
	if tp.Nodes() != 1024 {
		t.Fatalf("nodes = %d", tp.Nodes())
	}
	if _, err := Build(Spec{Kind: Clos3, Nodes: 1025, Radix: 16}); err == nil {
		t.Fatal("clos3 radix 16 accepted 1025 nodes")
	}
}

func TestCapacity(t *testing.T) {
	cases := []struct {
		spec Spec
		want int
	}{
		{Spec{Kind: Single, Radix: 16}, 16},
		{Spec{Kind: Single, Radix: 16, AllowExpand: true}, 256},
		{Spec{Kind: TwoSwitch, Radix: 16, AllowExpand: true}, 510},
		{Spec{Kind: TwoSwitch, Radix: 16}, 30},
		{Spec{Kind: Star, Radix: 16}, 16 * 15},
		{Spec{Kind: Star, Radix: 16, LeafNodes: 4}, 64},
		{Spec{Kind: Clos2, Radix: 16}, 16 * 8},
		{Spec{Kind: Clos3, Radix: 16}, 1024},
		{Spec{Kind: Clos3, Radix: 4}, 16},
	}
	for _, c := range cases {
		if got := c.spec.Capacity(); got != c.want {
			t.Errorf("Capacity(%+v) = %d, want %d", c.spec, got, c.want)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	bad := []Spec{
		{Kind: Single, Nodes: 0},
		{Kind: Single, Nodes: -3},
		{Kind: Star, Nodes: 4, Radix: 1},
		{Kind: Single, Nodes: 4, Radix: -1},
		{Kind: Clos3, Nodes: 4, Radix: 1},      // odd and < 2
		{Kind: Single, Nodes: 4, LeafNodes: 2}, // LeafNodes only star/clos2
		{Kind: Clos3, Nodes: 4, LeafNodes: 2},
		{Kind: Star, Nodes: 300, Radix: 4}, // over capacity (4*3=12)
		{Kind: Kind(99), Nodes: 4},
	}
	for _, spec := range bad {
		if _, err := Build(spec); err == nil {
			t.Errorf("Build(%+v) accepted an invalid spec", spec)
		}
	}
}

// TestRoutesMatchPerPairBFS holds the route table a Topology serves to the
// oracle's other traversal, the per-pair BFS of Graph.Route (bfs_test.go;
// the equivalence tests in algroute_test.go use the per-source RoutesFrom),
// on randomized Clos instances including radix 6.
func TestRoutesMatchPerPairBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prop := func(kindPick, radixPick, nodePick uint8) bool {
		kinds := []Kind{Star, Clos2, Clos3}
		kind := kinds[int(kindPick)%len(kinds)]
		radix := 4 + 2*(int(radixPick)%3) // 4, 6, 8
		spec := Spec{Kind: kind, Nodes: 0, Radix: radix}
		cap := spec.Capacity()
		spec.Nodes = 2 + int(nodePick)%(cap-1)
		tp, err := Build(spec)
		if err != nil {
			t.Logf("Build(%+v): %v", spec, err)
			return false
		}
		tbl, err := tp.RouteTable()
		if err != nil {
			t.Logf("RouteTable(%+v): %v", spec, err)
			return false
		}
		g := tp.Graph()
		// Check every route of a few random sources and a few random pairs.
		for k := 0; k < 3; k++ {
			src := rng.Intn(spec.Nodes)
			for dst := 0; dst < spec.Nodes; dst++ {
				if src == dst {
					continue
				}
				want, err := g.Route(nicVertexOf(src), nicVertexOf(dst))
				if err != nil {
					t.Logf("graph.Route(%d,%d) on %+v: %v", src, dst, spec, err)
					return false
				}
				if !reflect.DeepEqual(tbl[src][dst], want) {
					t.Logf("route %d->%d on %+v: table %v, per-pair BFS %v",
						src, dst, spec, tbl[src][dst], want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteSelfIsEmpty(t *testing.T) {
	tp := mustBuild(t, Spec{Kind: Star, Nodes: 8, Radix: 4})
	r, err := tp.Route(3, 3)
	if err != nil || len(r) != 0 {
		t.Fatalf("self route = %v, %v", r, err)
	}
	if _, err := tp.Route(0, 99); err == nil {
		t.Fatal("route to unknown node accepted")
	}
}

// TestRouteHopCounts pins the expected path lengths: 1 hop inside a
// crossbar, 3 across a star or leaf-spine fabric, 5 across fat-tree pods.
func TestRouteHopCounts(t *testing.T) {
	cases := []struct {
		spec     Spec
		src, dst int
		hops     int
	}{
		{Spec{Kind: Single, Nodes: 16, Radix: 16}, 0, 15, 1},
		{Spec{Kind: Star, Nodes: 12, Radix: 5}, 0, 3, 1},        // same leaf
		{Spec{Kind: Star, Nodes: 12, Radix: 5}, 0, 11, 3},       // via root
		{Spec{Kind: Clos2, Nodes: 8, Radix: 4}, 0, 7, 3},        // via spine
		{Spec{Kind: Clos3, Nodes: 1024, Radix: 16}, 0, 7, 1},    // same edge
		{Spec{Kind: Clos3, Nodes: 1024, Radix: 16}, 0, 63, 3},   // same pod
		{Spec{Kind: Clos3, Nodes: 1024, Radix: 16}, 0, 1023, 5}, // cross pod
	}
	for _, c := range cases {
		tp := mustBuild(t, c.spec)
		r, err := tp.Route(c.src, c.dst)
		if err != nil {
			t.Fatalf("route %d->%d on %v: %v", c.src, c.dst, c.spec.Kind, err)
		}
		if len(r) != c.hops {
			t.Errorf("route %d->%d on %v = %v (%d hops), want %d",
				c.src, c.dst, c.spec.Kind, r, len(r), c.hops)
		}
	}
}

func TestComputeStatsDiameters(t *testing.T) {
	cases := []struct {
		spec     Spec
		diameter int
	}{
		{Spec{Kind: Single, Nodes: 16, Radix: 16}, 1},
		{Spec{Kind: TwoSwitch, Nodes: 8, Radix: 8}, 2},
		{Spec{Kind: Star, Nodes: 12, Radix: 5}, 3},
		{Spec{Kind: Clos2, Nodes: 8, Radix: 4}, 3},
		{Spec{Kind: Clos3, Nodes: 32, Radix: 8}, 5},
	}
	for _, c := range cases {
		st := mustBuild(t, c.spec).ComputeStats()
		if st.Diameter != c.diameter {
			t.Errorf("%v diameter = %d, want %d", c.spec.Kind, st.Diameter, c.diameter)
		}
		pairs := 0
		for _, cnt := range st.HopsHistogram {
			pairs += cnt
		}
		if want := c.spec.Nodes * (c.spec.Nodes - 1); pairs != want {
			t.Errorf("%v histogram covers %d pairs, want %d", c.spec.Kind, pairs, want)
		}
		if st.AvgHops <= 0 || st.AvgHops > float64(st.Diameter) {
			t.Errorf("%v avg hops %v out of range", c.spec.Kind, st.AvgHops)
		}
	}
}

func TestDOTContainsFabric(t *testing.T) {
	tp := mustBuild(t, Spec{Kind: Star, Nodes: 12, Radix: 5})
	dot := tp.DOT("test caption")
	for _, want := range []string{
		"graph topology {",
		"test caption",
		"leaf 0", "leaf 2", "spine 3",
		"sw0 -- sw3",
		"nic11",
		"rank=same",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}
