package experiments

import (
	"gmsim/internal/cluster"
	"gmsim/internal/mcp"
	"gmsim/internal/model"
	"gmsim/internal/network"
	"gmsim/internal/topo"
)

// Experiment E13 (extension): the paper's 16-node testbed extrapolated to
// production-scale fabrics built from fixed-radix switches — star-of-
// switches trees and two-/three-level Clos networks up to the 1024 nodes a
// radix-16 fat-tree supports. The NIC-based barrier's advantage is
// predicted to grow with scale (Section 7); these sweeps measure it.

// TopoConfig returns the LANai 4.3 testbed on n nodes wired as the given
// topology kind from radix-port switches. Single keeps the historical
// auto-expansion (one crossbar grown to the node count — the idealized
// baseline); the multi-switch kinds are strict.
func TopoConfig(kind topo.Kind, n, radix int) cluster.Config {
	cfg := cluster.DefaultConfig(n)
	cfg.Switch = network.DefaultSwitchParams(radix)
	cfg.Topology = &topo.Spec{Kind: kind, Radix: radix, AllowExpand: kind == topo.Single}
	return cfg
}

// TopoScaleRow is one (topology, size) row of the scale sweep: the four
// barrier variants' latencies and the factors of improvement, plus the
// fabric's shape for context.
type TopoScaleRow struct {
	Kind     topo.Kind
	Nodes    int
	Switches int
	// Diameter is the longest NIC-to-NIC route in switch hops.
	Diameter                     int
	NICPE, HostPE, NICGB, HostGB float64
	NICGBDim, HostGBDim          int
	FactorPE, FactorGB           float64
}

// gbDims picks the GB tree dimensions to sweep at size n. Paper-scale
// clusters sweep every dimension 1..n-1 (the paper's methodology); larger
// sizes sample the useful range — past dim ~32 the root's fan-in
// serializes and latency only grows, so the omitted dimensions cannot win.
func gbDims(n int) []int {
	if n <= 16 {
		dims := make([]int, 0, n-1)
		for d := 1; d <= n-1; d++ {
			dims = append(dims, d)
		}
		return dims
	}
	var dims []int
	for _, d := range []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32} {
		if d <= n-1 {
			dims = append(dims, d)
		}
	}
	return dims
}

// TunedGBDim picks the GB tree dimension for cfg from the closed-form
// steady-state model (internal/model) instead of an exhaustive
// per-dimension DES sweep — the same argmin GBDimSweep measures on every
// conformance cell (see tuned_test.go), at a millionth of the cost. The
// model prices the single-crossbar steady state; on a multi-switch fabric
// the tuned dimension is the flat-tree optimum, which the topology-aware
// mapping then folds onto leaves.
func TunedGBDim(cfg cluster.Config) int {
	return model.TunedGBDim(cfg.Nodes, model.GBCostsAt(cfg.NIC.ClockMHz))
}

// TopoSweep parameterizes TopoScaleSweep.
type TopoSweep struct {
	// Kinds × Sizes are the candidate rows, built from Radix-port
	// switches; Iters barriers are timed per measurement.
	Kinds        []topo.Kind
	Sizes        []int
	Radix, Iters int
	// Dims lists the GB tree dimensions to sweep per row; nil means the
	// gbDims default for each size. Ignored when Tuned is set.
	Dims []int
	// Tuned picks the GB dimension per row with TunedGBDim instead of
	// sweeping: each row costs 4 simulations instead of 2 + 2·|dims|,
	// which is what makes the 8192- and 16384-node fat-tree rows
	// affordable. The host GB row reuses the NIC-tuned dimension (an
	// approximation — the host steady state has the same shape with larger
	// per-level constants, and its optimum moves little; the sweep remains
	// available where the exact host argmin matters).
	Tuned bool
}

// TopoScaleSweep measures NIC- and host-based PE and GB barriers for every
// feasible (kind, size) combination, flattening all the independent
// simulations into one worker-pool batch. GB runs topology-aware (see
// core.GBTree) and takes the best of the row's dimensions. Combinations a
// kind cannot host (capacity exceeded — including the 256-port route-byte
// ceiling on expanded single crossbars) are skipped, so e.g. sizes up to
// 1024 can be paired with clos2 (128 nodes at radix 16) without error
// handling at the call site; callers that want to report the gaps can
// compare rows against kinds x sizes.
func TopoScaleSweep(o TopoSweep) ([]TopoScaleRow, error) {
	type rowPlan struct {
		kind               topo.Kind
		n                  int
		switches, diameter int
		offset             int // index of this row's first spec
		dims               []int
	}
	var plans []rowPlan
	var specs []Spec
	for _, kind := range o.Kinds {
		for _, n := range o.Sizes {
			if n < 2 {
				continue
			}
			spec := topo.Spec{Kind: kind, Nodes: n, Radix: o.Radix, AllowExpand: kind == topo.Single}
			t, err := topo.Build(spec)
			if err != nil {
				continue // infeasible at this size; skip the row
			}
			st := t.ComputeStats()
			cfg := TopoConfig(kind, n, o.Radix)
			ds := o.Dims
			switch {
			case o.Tuned:
				ds = []int{TunedGBDim(cfg)}
			case ds == nil:
				ds = gbDims(n)
			}
			plans = append(plans, rowPlan{
				kind: kind, n: n,
				switches: t.Switches(), diameter: st.Diameter,
				offset: len(specs), dims: ds,
			})
			specs = append(specs,
				Spec{Cluster: cfg, Level: NICLevel, Alg: mcp.PE, Iters: o.Iters},
				Spec{Cluster: cfg, Level: HostLevel, Alg: mcp.PE, Iters: o.Iters})
			for _, d := range ds {
				specs = append(specs, Spec{Cluster: cfg, Level: NICLevel, Alg: mcp.GB, Dim: d, TopoAware: true, Iters: o.Iters})
			}
			for _, d := range ds {
				specs = append(specs, Spec{Cluster: cfg, Level: HostLevel, Alg: mcp.GB, Dim: d, TopoAware: true, Iters: o.Iters})
			}
		}
	}
	results, err := RunAll(specs)
	if err != nil {
		return nil, err
	}
	rows := make([]TopoScaleRow, 0, len(plans))
	for _, pl := range plans {
		off, nd := pl.offset, len(pl.dims)
		row := TopoScaleRow{
			Kind: pl.kind, Nodes: pl.n,
			Switches: pl.switches, Diameter: pl.diameter,
			NICPE:  results[off].MeanMicros,
			HostPE: results[off+1].MeanMicros,
		}
		nicBest, nicLat := bestDim(results[off+2 : off+2+nd])
		hostBest, hostLat := bestDim(results[off+2+nd : off+2+2*nd])
		row.NICGBDim, row.NICGB = pl.dims[nicBest-1], nicLat
		row.HostGBDim, row.HostGB = pl.dims[hostBest-1], hostLat
		row.FactorPE = row.HostPE / row.NICPE
		row.FactorGB = row.HostGB / row.NICGB
		rows = append(rows, row)
	}
	return rows, nil
}

// ContentionRow is one row of the cross-switch contention experiment:
// mean per-message streaming time for sender/receiver pairs placed on one
// crossbar vs pairs straddling the tree's root, as the number of
// concurrent pairs grows. The crossbar is non-blocking, so IntraMicros
// stays flat; the cross pairs all share one root trunk, so CrossMicros
// grows once the aggregate stream rate exceeds the trunk's — the effect
// that motivates Clos fabrics over simple trees (and the reason
// TopoScaleSweep's mapped GB trees keep hops intra-switch).
type ContentionRow struct {
	Pairs       int
	IntraMicros float64
	CrossMicros float64
	Slowdown    float64
}

// CrossSwitchContention builds a two-leaf star (leaf–root–leaf) and runs p
// concurrent one-way streams (see Streams) of iters messages of the given
// size, with the pairs placed either inside one leaf crossbar (intra) or
// across the two leaves (cross), for each pair count. Each (placement, p)
// combination is an independent simulation fanned out on the worker pool.
func CrossSwitchContention(radix int, pairCounts []int, bytes, iters int) ([]ContentionRow, error) {
	pmax := 0
	for _, p := range pairCounts {
		pmax = max(pmax, p)
	}
	// Leaf capacity: 2·pmax nodes on leaf 0 for the intra runs, pmax on
	// each leaf for the cross runs.
	leafNodes := 2 * pmax
	cfg := cluster.DefaultConfig(2 * leafNodes)
	cfg.Switch = network.DefaultSwitchParams(radix)
	cfg.Topology = &topo.Spec{Kind: topo.Star, Radix: radix, LeafNodes: leafNodes}
	specs := make([]Spec, 0, 2*len(pairCounts))
	for _, p := range pairCounts {
		intra := make([][2]int, p)
		cross := make([][2]int, p)
		for i := 0; i < p; i++ {
			intra[i] = [2]int{2 * i, 2*i + 1}   // both on leaf 0
			cross[i] = [2]int{i, leafNodes + i} // leaf 0 <-> leaf 1
		}
		specs = append(specs,
			Spec{Cluster: cfg, Op: Streams, Pairs: intra, Bytes: bytes, Iters: iters},
			Spec{Cluster: cfg, Op: Streams, Pairs: cross, Bytes: bytes, Iters: iters})
	}
	results, err := RunAll(specs)
	if err != nil {
		return nil, err
	}
	rows := make([]ContentionRow, 0, len(pairCounts))
	for i, p := range pairCounts {
		in, cr := results[2*i].MeanMicros, results[2*i+1].MeanMicros
		rows = append(rows, ContentionRow{Pairs: p, IntraMicros: in, CrossMicros: cr, Slowdown: cr / in})
	}
	return rows, nil
}
