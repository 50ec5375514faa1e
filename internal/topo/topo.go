// Package topo builds declarative multi-switch Myrinet topologies.
//
// The paper's testbed is one crossbar (16 ports, Section 6); real Myrinet
// clusters of the era were built as Clos networks of fixed-radix switches,
// and the regime where NIC-based collectives matter most is precisely the
// multi-switch fabric where host-based synchronization pays per-hop and
// per-stage costs. This package turns a five-field Spec into a concrete
// wiring plan — switch port counts, switch-to-switch trunks, and a NIC
// placement per node — that internal/cluster materializes into a
// network.Fabric. A plan is a plain value: Build makes a fresh one each
// call, no plan shares mutable state with another, and a built plan
// is never written again, so the cluster that builds one owns it. The same
// plan, independent of any simulator, yields deterministic all-pairs
// source routes — address arithmetic, see algroute.go; the BFS in
// bfs_test.go is its test oracle — topology statistics (diameter,
// bisection links, hops histogram) and a Graphviz rendering.
//
// Supported kinds:
//
//   - Single: one crossbar, node i on port i — the paper's testbed. The
//     crossbar grows past the radix to fit the nodes, up to MaxSwitchPorts.
//   - TwoSwitch: two radix-port crossbars joined by one trunk on each
//     one's last port, the nodes split half and half.
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
// an equal Topology, and a Spec may be shared between cluster configs.
type Spec struct {
	// Kind is the fabric shape.
	Kind Kind
	// Nodes is the NIC count. The cluster layer fills it from
	// cluster.Config.Nodes when zero.
	Nodes int
	// Radix is the switch port count; 0 means DefaultRadix. Every switch
	// in the fabric has this radix (fixed-radix building blocks, as real
	// Myrinet switches were), except a Single crossbar, which has at least
	// a port per node.
	Radix int
	// LeafNodes caps the nodes attached per leaf switch for Star and
	// Clos2 (0 = as many as the radix allows after uplinks). Lowering it
	// spreads a small node count over more switches — used by the
	// cross-switch contention experiments.
	LeafNodes int
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

// Capacity returns the maximum node count a spec's shape supports.
func (s Spec) Capacity() int {
	if s.Radix == 0 {
		s.Radix = DefaultRadix
	}
	r := s.Radix
	switch s.Kind {
	case Single:
		// The crossbar grows to the node count, and stops where one-byte
		// source routes do.
		return MaxSwitchPorts
	case TwoSwitch:
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

// Validate reports why Build would reject the spec, without building it.
func (s Spec) Validate() error {
	_, err := s.resolve()
	return err
}

// resolve makes the default radix explicit and checks that the nodes can
// all attach — rather than silently colliding on port indices: zero or
// negative node counts, radix too small, an unknown kind or capacity
// exceeded, an odd radix for the fat-tree (which needs an even split per
// tier), or a switch past what one-byte source routes address.
func (s Spec) resolve() (Spec, error) {
	if s.Nodes < 1 {
		return s, fmt.Errorf("topo: need at least one node, have %d", s.Nodes)
	}
	if s.Radix == 0 {
		s.Radix = DefaultRadix
	}
	if s.Radix < 1 {
		return s, fmt.Errorf("topo: radix %d too small", s.Radix)
	}
	// Multi-switch fabrics burn at least one port per switch on trunks; a
	// 1-port building block cannot form one. The single crossbar grows to
	// the node count, so any radix will do.
	if s.Radix < 2 && s.Kind != Single {
		return s, fmt.Errorf("topo: radix %d too small for %s (need >= 2 ports)", s.Radix, s.Kind)
	}
	if s.LeafNodes != 0 && s.Kind != Star && s.Kind != Clos2 {
		return s, fmt.Errorf("topo: LeafNodes applies only to star and clos2 topologies")
	}
	// An unknown kind has capacity 0.
	if cap := s.Capacity(); s.Nodes > cap {
		return s, fmt.Errorf("topo: %d nodes exceed the %s capacity of %d (radix %d)",
			s.Nodes, s.Kind, cap, s.Radix)
	}
	if s.Kind == Clos3 && s.Radix%2 != 0 {
		return s, fmt.Errorf("topo: clos3 needs an even radix, have %d", s.Radix)
	}
	// A switch has Radix ports, or a single crossbar the node count when
	// larger, which Capacity holds to MaxSwitchPorts.
	if s.Radix > MaxSwitchPorts {
		return s, fmt.Errorf("topo: radix %d: source routes address at most %d ports a switch (one byte per hop)",
			s.Radix, MaxSwitchPorts)
	}
	return s, nil
}

// Build constructs the wiring plan for a spec, or reports why it cannot
// (see Validate). Each call returns a new plan.
func Build(spec Spec) (*Topology, error) {
	spec, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	t := &Topology{Spec: spec, NICs: make([]NICPlace, 0, spec.Nodes)}
	switch spec.Kind {
	case Single:
		t.buildSingle()
	case TwoSwitch:
		t.buildTwoSwitch()
	case Star:
		t.buildStar()
	case Clos2:
		t.buildClos2()
	case Clos3:
		t.buildClos3()
	}
	t.routes = newAlgRouter(spec)
	return t, nil
}

func (t *Topology) buildSingle() {
	n := t.Spec.Nodes
	t.SwitchPorts = []int{max(t.Spec.Radix, n)}
	t.Levels = []int{0}
	for i := 0; i < n; i++ {
		t.NICs = append(t.NICs, NICPlace{Switch: 0, Port: i})
	}
	t.BisectionLinks = n / 2 // the crossbar is non-blocking
}

// buildTwoSwitch wires two radix-port crossbars: the first (n+1)/2 nodes
// on crossbar 0, the rest on crossbar 1, and the trunk on each one's last
// port (Capacity guarantees the larger half leaves that port free).
func (t *Topology) buildTwoSwitch() {
	n, r := t.Spec.Nodes, t.Spec.Radix
	half := (n + 1) / 2
	t.SwitchPorts = []int{r, r}
	t.Levels = []int{0, 0}
	t.Trunks = []Trunk{{A: 0, APort: r - 1, B: 1, BPort: r - 1}}
	for i := 0; i < n; i++ {
		if i < half {
			t.NICs = append(t.NICs, NICPlace{Switch: 0, Port: i})
		} else {
			t.NICs = append(t.NICs, NICPlace{Switch: 1, Port: i - half})
		}
	}
	t.BisectionLinks = 1
}

func (t *Topology) buildStar() {
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
}

func (t *Topology) buildClos2() {
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
}

// buildClos3 builds the k-ary fat-tree: k pods of k/2 edge and k/2
// aggregation switches, (k/2)² core switches, k/2 nodes per edge switch.
// Only the pods needed for Nodes are instantiated; the core layer is
// always complete so every built pod has full upward capacity.
func (t *Topology) buildClos3() {
	n, k := t.Spec.Nodes, t.Spec.Radix
	h := k / 2
	perPod := h * h // nodes per pod
	pods := (n + perPod - 1) / perPod
	// Per pod: edges first (level 0), then aggregations (level 1); the
	// core layer (level 2) comes after all pods.
	edge := func(p, e int) int { return p*k + e }
	agg := func(p, a int) int { return p*k + h + a }
	coreBase := pods * k
	core := func(a, j int) int { return coreBase + a*h + j }
	switches := coreBase + h*h
	t.SwitchPorts = make([]int, 0, switches)
	t.Levels = make([]int, 0, switches)
	t.Trunks = make([]Trunk, 0, pods*2*h*h)
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
