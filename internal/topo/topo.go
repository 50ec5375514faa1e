// Package topo builds declarative multi-switch Myrinet topologies.
//
// The paper's testbed is one crossbar (16 ports, Section 6); real Myrinet
// clusters of the era were built as Clos networks of fixed-radix switches,
// and the regime where NIC-based collectives matter most is precisely the
// multi-switch fabric where host-based synchronization pays per-hop and
// per-stage costs. This package turns a five-field Spec into a concrete
// wiring plan — switch port counts, switch-to-switch trunks, and a NIC
// placement per node — that internal/cluster materializes into a
// network.Fabric. The same plan, independent of any simulator, yields
// deterministic all-pairs source routes — address arithmetic, see
// algroute.go; the BFS in bfs_test.go is its test oracle — topology
// statistics (diameter, bisection links, hops histogram) and a Graphviz
// rendering.
//
// Supported kinds:
//
//   - Single: one crossbar, node i on port i — the paper's testbed.
//   - TwoSwitch: two crossbars joined by one trunk — the cluster package's
//     historical TwoLevel extension, reproduced wire-for-wire.
//   - Star: leaf crossbars around one root switch (a one-level tree); each
//     leaf spends one port on its root uplink.
//   - Clos2: a two-level folded Clos (leaf-and-spine); each leaf splits its
//     radix between nodes and one uplink to every spine.
//   - Clos3: a three-level k-ary fat-tree (pods of edge and aggregation
//     switches under a core layer) — radix 16 reaches 1024 nodes, the
//     scale the paper's Section 7 extrapolates toward.
package topo

import (
	"fmt"
	"strings"
	"sync"
)

// Kind selects the fabric shape.
type Kind int

const (
	// Single is one crossbar with a port per node.
	Single Kind = iota
	// TwoSwitch is two crossbars joined by a single trunk.
	TwoSwitch
	// Star is a one-level tree: leaf switches around one root switch.
	Star
	// Clos2 is a two-level folded Clos (leaf-and-spine).
	Clos2
	// Clos3 is a three-level k-ary fat-tree (edge/aggregation pods + core).
	Clos3
)

func (k Kind) String() string {
	switch k {
	case Single:
		return "single"
	case TwoSwitch:
		return "twoswitch"
	case Star:
		return "star"
	case Clos2:
		return "clos2"
	case Clos3:
		return "clos3"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Kinds lists every supported kind in declaration order.
func Kinds() []Kind { return []Kind{Single, TwoSwitch, Star, Clos2, Clos3} }

// ParseKind parses a kind name as written by Kind.String ("single",
// "twoswitch", "star", "clos2", "clos3").
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds() {
		if strings.EqualFold(s, k.String()) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("topo: unknown topology kind %q (single, twoswitch, star, clos2, clos3)", s)
}

// DefaultRadix is the port count assumed when a Spec leaves Radix zero:
// the largest single crossbar of the paper's era (its 16-node testbed
// filled one).
const DefaultRadix = 16

// MaxSwitchPorts is the largest switch any topology may contain. Myrinet
// source routes spend one byte per hop naming the output port, so ports
// past 255 are unaddressable: a larger "switch" would silently misroute.
// This is the hard reason monolithic crossbars stop at 256 nodes and
// scaling further requires a multi-switch fabric.
const MaxSwitchPorts = 256

// Spec declares a topology. It is pure data: the same Spec always builds
// the same Topology, and a Spec may be shared between cluster configs.
type Spec struct {
	// Kind is the fabric shape.
	Kind Kind
	// Nodes is the NIC count. The cluster layer fills it from
	// cluster.Config.Nodes when zero.
	Nodes int
	// Radix is the switch port count; 0 means DefaultRadix. Every switch
	// in the fabric has this radix (fixed-radix building blocks, as real
	// Myrinet switches were).
	Radix int
	// LeafNodes caps the nodes attached per leaf switch for Star and
	// Clos2 (0 = as many as the radix allows after uplinks). Lowering it
	// spreads a small node count over more switches — used by the
	// cross-switch contention experiments.
	LeafNodes int
	// AllowExpand lets Single and TwoSwitch grow their crossbars beyond
	// Radix to fit Nodes — the historical cluster.New behavior, kept so
	// legacy configs map onto specs bit-identically. Fixed-radix kinds
	// (Star, Clos2, Clos3) ignore it and error when capacity is exceeded.
	AllowExpand bool
}

// Trunk is one duplex switch-to-switch cable.
type Trunk struct {
	A, APort int
	B, BPort int
}

// NICPlace is one node's attachment point.
type NICPlace struct {
	Switch, Port int
}

// Topology is a built wiring plan. Switches are identified by index in
// SwitchPorts; materialization (cluster.New) must create them in that
// order, then cable Trunks in order, then attach NICs in node order, so
// that fabric link IDs are reproducible.
type Topology struct {
	Spec        Spec
	SwitchPorts []int      // ports per switch
	Trunks      []Trunk    // switch-to-switch cables, in cabling order
	NICs        []NICPlace // per-node attachment, index = node ID
	// Levels labels each switch's tier for stats and rendering:
	// 0 = leaf/edge (has NICs), 1 = root/spine/aggregation, 2 = core.
	Levels []int
	// BisectionLinks is the trunk count crossing an even split of the
	// leaf switches (for Single, the crossbar's internal half: Nodes/2).
	BisectionLinks int

	routes *algRouter
}

// Capacity returns the maximum node count a spec's shape supports, or -1
// when unbounded (AllowExpand crossbars).
func (s Spec) Capacity() int {
	if s.Radix == 0 {
		s.Radix = DefaultRadix
	}
	r := s.Radix
	switch s.Kind {
	case Single:
		if s.AllowExpand {
			// Expansion stops where one-byte source routes do.
			return MaxSwitchPorts
		}
		return r
	case TwoSwitch:
		if s.AllowExpand {
			// Each expanded crossbar keeps one port for the trunk.
			return 2 * (MaxSwitchPorts - 1)
		}
		// One uplink port per crossbar.
		return 2 * (r - 1)
	case Star, Clos2:
		// At most Radix leaves: one root port, or one port per spine, each.
		return r * s.perLeaf()
	case Clos3:
		return r * r * r / 4
	default:
		return 0
	}
}

// perLeaf returns the nodes a Star or Clos2 attaches per leaf switch: the
// ports the uplinks leave (one to the star's root; half the radix to the
// spines), lowered by LeafNodes. Radix must be explicit.
func (s Spec) perLeaf() int {
	per := s.Radix - 1
	if s.Kind == Clos2 {
		per = s.Radix / 2
	}
	if s.LeafNodes > 0 && s.LeafNodes < per {
		per = s.LeafNodes
	}
	return per
}

// planCache memoizes built topologies process-wide, keyed by canonical
// Spec. An experiment sweep rebuilds the same plan for every run of a
// cell; with this cache the plan, and the router's per-pair route memo,
// survive across Build calls. The key mirrors service.Canonicalize's spec
// normalization — the service package sits above cluster and cannot be
// imported here — so two specs the service would content-address
// identically share one plan.
var planCache struct {
	mu sync.Mutex
	m  map[Spec]*Topology
}

// planCacheCap bounds the cache; on overflow the map is dropped wholesale
// (plans are cheap to rebuild, and a process juggling >64 distinct specs
// is a fuzzer, not a sweep).
const planCacheCap = 64

// canonicalSpec normalizes a Spec to its cache identity: defaulted radix
// made explicit, and AllowExpand cleared for the fixed-radix kinds that
// ignore it.
func canonicalSpec(s Spec) Spec {
	if s.Radix == 0 {
		s.Radix = DefaultRadix
	}
	switch s.Kind {
	case Star, Clos2, Clos3:
		s.AllowExpand = false
	}
	return s
}

// Build constructs the wiring plan for a spec. It errors — rather than
// silently colliding on port indices — when the nodes cannot all attach:
// zero or negative node counts, radix too small, capacity exceeded, or an
// odd radix for the fat-tree (which needs an even split per tier).
//
// Successful builds are memoized by canonical Spec, so repeated Builds of
// one spec share a single Topology — including its memoized routes. The
// shared plan is immutable after construction and safe for concurrent
// use (the route memo locks internally).
func Build(spec Spec) (*Topology, error) {
	key := canonicalSpec(spec)
	planCache.mu.Lock()
	if t, ok := planCache.m[key]; ok {
		planCache.mu.Unlock()
		return t, nil
	}
	planCache.mu.Unlock()
	t, err := build(key)
	if err != nil {
		return nil, err
	}
	planCache.mu.Lock()
	if planCache.m == nil {
		planCache.m = make(map[Spec]*Topology, planCacheCap)
	} else if len(planCache.m) >= planCacheCap {
		planCache.m = make(map[Spec]*Topology, planCacheCap)
	}
	planCache.m[key] = t
	planCache.mu.Unlock()
	return t, nil
}

func build(spec Spec) (*Topology, error) {
	if spec.Nodes < 1 {
		return nil, fmt.Errorf("topo: need at least one node, have %d", spec.Nodes)
	}
	if spec.Radix == 0 {
		spec.Radix = DefaultRadix
	}
	if spec.Radix < 1 {
		return nil, fmt.Errorf("topo: radix %d too small", spec.Radix)
	}
	// Multi-switch fabrics burn at least one port per switch on trunks; a
	// 1-port building block cannot form one. The single-crossbar kinds
	// tolerate radix 1 (a one-node cluster on a one-port switch is legal,
	// and the legacy layouts auto-expand).
	if spec.Radix < 2 && spec.Kind != Single && spec.Kind != TwoSwitch {
		return nil, fmt.Errorf("topo: radix %d too small for %s (need >= 2 ports)", spec.Radix, spec.Kind)
	}
	if spec.LeafNodes != 0 && spec.Kind != Star && spec.Kind != Clos2 {
		return nil, fmt.Errorf("topo: LeafNodes applies only to star and clos2 topologies")
	}
	if cap := spec.Capacity(); cap >= 0 && spec.Nodes > cap {
		return nil, fmt.Errorf("topo: %d nodes exceed the %s capacity of %d (radix %d)",
			spec.Nodes, spec.Kind, cap, spec.Radix)
	}
	t := &Topology{Spec: spec}
	var err error
	switch spec.Kind {
	case Single:
		err = t.buildSingle()
	case TwoSwitch:
		err = t.buildTwoSwitch()
	case Star:
		err = t.buildStar()
	case Clos2:
		err = t.buildClos2()
	case Clos3:
		err = t.buildClos3()
	default:
		err = fmt.Errorf("topo: unknown topology kind %v", spec.Kind)
	}
	if err != nil {
		return nil, err
	}
	for s, p := range t.SwitchPorts {
		if p > MaxSwitchPorts {
			return nil, fmt.Errorf("topo: switch %d needs %d ports; source routes address at most %d (one byte per hop) — use a multi-switch topology",
				s, p, MaxSwitchPorts)
		}
	}
	t.routes = newAlgRouter(t)
	return t, nil
}

func (t *Topology) buildSingle() error {
	n, ports := t.Spec.Nodes, t.Spec.Radix
	if ports < n {
		// Capacity was already checked, so expansion must be allowed.
		ports = n
	}
	t.SwitchPorts = []int{ports}
	t.Levels = []int{0}
	for i := 0; i < n; i++ {
		t.NICs = append(t.NICs, NICPlace{Switch: 0, Port: i})
	}
	t.BisectionLinks = n / 2 // the crossbar is non-blocking
	return nil
}

// buildTwoSwitch reproduces the historical cluster.New TwoLevel wiring
// exactly: nodes split half-and-half, each crossbar's last port carries
// the trunk, and the crossbars grow (when expansion is allowed) only if
// the first half plus the uplink does not fit.
func (t *Topology) buildTwoSwitch() error {
	n, r := t.Spec.Nodes, t.Spec.Radix
	half := (n + 1) / 2
	pA, pB := r, r
	if pA < half+1 {
		if !t.Spec.AllowExpand {
			return fmt.Errorf("topo: twoswitch radix %d cannot attach %d nodes plus a trunk", r, n)
		}
		pA = half + 1
		pB = (n - half) + 1
	}
	t.SwitchPorts = []int{pA, pB}
	t.Levels = []int{0, 0}
	t.Trunks = []Trunk{{A: 0, APort: pA - 1, B: 1, BPort: pB - 1}}
	for i := 0; i < n; i++ {
		if i < half {
			t.NICs = append(t.NICs, NICPlace{Switch: 0, Port: i})
		} else {
			t.NICs = append(t.NICs, NICPlace{Switch: 1, Port: i - half})
		}
	}
	t.BisectionLinks = 1
	return nil
}

func (t *Topology) buildStar() error {
	n, r := t.Spec.Nodes, t.Spec.Radix
	per := t.Spec.perLeaf()
	leaves := (n + per - 1) / per
	if leaves < 1 {
		leaves = 1
	}
	// Leaves are switches 0..leaves-1; the root is switch `leaves`.
	for l := 0; l < leaves; l++ {
		t.SwitchPorts = append(t.SwitchPorts, r)
		t.Levels = append(t.Levels, 0)
	}
	t.SwitchPorts = append(t.SwitchPorts, r)
	t.Levels = append(t.Levels, 1)
	root := leaves
	for l := 0; l < leaves; l++ {
		t.Trunks = append(t.Trunks, Trunk{A: l, APort: r - 1, B: root, BPort: l})
	}
	for i := 0; i < n; i++ {
		t.NICs = append(t.NICs, NICPlace{Switch: i / per, Port: i % per})
	}
	t.BisectionLinks = (leaves + 1) / 2 // far-half leaves each cross one uplink
	if leaves == 1 {
		t.BisectionLinks = n / 2
	}
	return nil
}

func (t *Topology) buildClos2() error {
	n, r := t.Spec.Nodes, t.Spec.Radix
	down := t.Spec.perLeaf() // node-facing ports per leaf; the rest go to spines
	spines := r - r/2
	leaves := (n + down - 1) / down
	if leaves < 1 {
		leaves = 1
	}
	// Leaves are switches 0..leaves-1, spines leaves..leaves+spines-1.
	for l := 0; l < leaves; l++ {
		t.SwitchPorts = append(t.SwitchPorts, r)
		t.Levels = append(t.Levels, 0)
	}
	for s := 0; s < spines; s++ {
		t.SwitchPorts = append(t.SwitchPorts, r)
		t.Levels = append(t.Levels, 1)
	}
	for l := 0; l < leaves; l++ {
		for s := 0; s < spines; s++ {
			t.Trunks = append(t.Trunks, Trunk{A: l, APort: r/2 + s, B: leaves + s, BPort: l})
		}
	}
	for i := 0; i < n; i++ {
		t.NICs = append(t.NICs, NICPlace{Switch: i / down, Port: i % down})
	}
	t.BisectionLinks = spines * ((leaves + 1) / 2)
	if leaves == 1 {
		t.BisectionLinks = n / 2
	}
	return nil
}

// buildClos3 builds the k-ary fat-tree: k pods of k/2 edge and k/2
// aggregation switches, (k/2)² core switches, k/2 nodes per edge switch.
// Only the pods needed for Nodes are instantiated; the core layer is
// always complete so every built pod has full upward capacity.
func (t *Topology) buildClos3() error {
	n, k := t.Spec.Nodes, t.Spec.Radix
	if k%2 != 0 {
		return fmt.Errorf("topo: clos3 needs an even radix, have %d", k)
	}
	h := k / 2
	perPod := h * h // nodes per pod
	pods := (n + perPod - 1) / perPod
	// Per pod: edges first (level 0), then aggregations (level 1); the
	// core layer (level 2) comes after all pods.
	edge := func(p, e int) int { return p*k + e }
	agg := func(p, a int) int { return p*k + h + a }
	coreBase := pods * k
	core := func(a, j int) int { return coreBase + a*h + j }
	for p := 0; p < pods; p++ {
		for e := 0; e < h; e++ {
			t.SwitchPorts = append(t.SwitchPorts, k)
			t.Levels = append(t.Levels, 0)
		}
		for a := 0; a < h; a++ {
			t.SwitchPorts = append(t.SwitchPorts, k)
			t.Levels = append(t.Levels, 1)
		}
	}
	for c := 0; c < h*h; c++ {
		t.SwitchPorts = append(t.SwitchPorts, k)
		t.Levels = append(t.Levels, 2)
	}
	for p := 0; p < pods; p++ {
		// Edge e ports: 0..h-1 nodes, h+a to aggregation a (at agg port e).
		for e := 0; e < h; e++ {
			for a := 0; a < h; a++ {
				t.Trunks = append(t.Trunks, Trunk{A: edge(p, e), APort: h + a, B: agg(p, a), BPort: e})
			}
		}
		// Aggregation a ports: 0..h-1 edges (cabled above), h+j to core
		// group a's j-th switch (at core port p, one port per pod).
		for a := 0; a < h; a++ {
			for j := 0; j < h; j++ {
				t.Trunks = append(t.Trunks, Trunk{A: agg(p, a), APort: h + j, B: core(a, j), BPort: p})
			}
		}
	}
	for i := 0; i < n; i++ {
		p := i / perPod
		rem := i % perPod
		t.NICs = append(t.NICs, NICPlace{Switch: edge(p, rem/h), Port: rem % h})
	}
	// Full fat-tree bisection: half the hosts can cross simultaneously.
	t.BisectionLinks = h * h * ((pods + 1) / 2)
	if pods == 1 {
		t.BisectionLinks = h * ((h + 1) / 2)
	}
	return nil
}

// Nodes returns the node count.
func (t *Topology) Nodes() int { return len(t.NICs) }

// Switches returns the switch count.
func (t *Topology) Switches() int { return len(t.SwitchPorts) }

// LeafOf returns, per node, the index of the switch its NIC attaches to —
// the locality map the topology-aware GB trees consume: two nodes with the
// same leaf reach each other through a single crossbar.
func (t *Topology) LeafOf() []int {
	out := make([]int, len(t.NICs))
	for i, p := range t.NICs {
		out[i] = p.Switch
	}
	return out
}
