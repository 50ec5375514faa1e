// Package experiments reproduces the paper's evaluation: one function per
// table/figure, returning structured rows that cmd/barrierbench prints,
// bench_test.go re-runs, and the calibration test checks against the
// paper's measured numbers. See DESIGN.md's per-experiment index.
package experiments

import (
	"fmt"

	"gmsim/internal/cluster"
	"gmsim/internal/mcp"
	"gmsim/internal/runner"
	"gmsim/internal/sim"
)

// BehaviourEpoch names the simulator's behaviour: what a spec's run returns,
// result and trace. It is bumped by hand, with the re-pin, whenever a change
// moves any of those bytes on purpose, so that results stored under an older
// epoch are simulated again rather than served (service.Store). It is not
// part of a spec or its hash.
//
//	1: host spans are kept by the time they start, and the trace exports them
//	   grouped by node after the loop's spans.
const BehaviourEpoch = 1

// Level places the barrier algorithm at the NIC or at the host.
type Level int

const (
	// NICLevel runs the barrier inside the NIC firmware (the paper's
	// contribution).
	NICLevel Level = iota
	// HostLevel runs it at the host over plain GM sends/receives
	// (the baseline).
	HostLevel
)

func (l Level) String() string {
	if l == NICLevel {
		return "NIC"
	}
	return "host"
}

// Op is the operation a Spec measures: the barrier, one of the four
// collectives of the paper's Section 8 (mcp.CollOp, in its order), or one of
// the host programs the extensions time — a ping-pong, MPI_Barrier, a BSP
// compute-then-barrier loop, and concurrent one-way streams.
type Op int

const (
	// Barrier is the zero Op: a barrier of the Spec's Alg.
	Barrier Op = iota
	Broadcast
	Reduce
	AllReduce
	AllGather
	// PingPong bounces a Bytes-byte message between the two ranks of a
	// two-node cluster; the mean is the one-way latency, half the round
	// trip (E6).
	PingPong
	// MPIBarrier is MPI_Barrier over the mpi layer, backed by the NIC-based
	// PE barrier at NICLevel and by the layer's host algorithm at HostLevel
	// (E8b).
	MPIBarrier
	// BSP computes for GrainMicros, plus a seeded per-rank jitter of up to
	// Imbalance of the grain, then runs the Spec's barrier (E12).
	BSP
	// Streams runs one one-way stream per pair of Pairs, all at once: the
	// first node sends Iters Bytes-byte messages to the second, which acks
	// the last. The mean is a pair's window, first send to the ack, per
	// message, averaged over pairs (E13 contention). Warmup is ignored.
	Streams
)

// collective reports whether the Op is one of the four collectives.
func (o Op) collective() bool { return o >= Broadcast && o <= AllGather }

// coll names a collective Op as the firmware does.
func (o Op) coll() mcp.CollOp { return mcp.CollOp(o - Broadcast) }

// Spec describes one latency measurement.
type Spec struct {
	// Cluster is the testbed; Cluster.Nodes processes participate, one
	// per node, all on port 2 (GM reserves low port numbers).
	Cluster cluster.Config
	// Level places the barrier, the collective, and the barrier under
	// MPIBarrier and BSP, at the NIC or at the host.
	Level Level
	Op    Op
	// Alg is the barrier's algorithm (ignored for a collective, which
	// runs over the flat GB tree, and for MPIBarrier, whose layer picks).
	Alg mcp.BarrierAlg
	// Dim is the GB or collective tree dimension (ignored for PE).
	Dim int
	// TopoAware maps the GB tree onto the switch topology (see
	// core.GBTree): intra-switch subtrees with one trunk crossing
	// per leaf switch. Ignored for PE and collectives. On a single
	// crossbar the mapped tree equals the flat one, so the flag changes
	// nothing.
	TopoAware bool
	// Elems is a collective's payload per rank in int64 elements (a
	// broadcast's at the root only).
	Elems int
	// Bytes is a PingPong or Streams message's size.
	Bytes int
	// GrainMicros and Imbalance are BSP's compute grain and its jitter as
	// a fraction of the grain.
	GrainMicros, Imbalance float64
	// Pairs are Streams' (sender, receiver) nodes; a node is in at most
	// one pair, and nodes in none idle.
	Pairs [][2]int
	// Warmup operations run before timing starts; Iters are timed.
	Warmup, Iters int
}

// DefaultIters is the timed-iteration count used by the harness. The paper
// ran 100,000 consecutive barriers; the simulation is deterministic, so
// far fewer iterations give a converged steady-state average (the -iters
// flag of cmd/barrierbench raises it).
const DefaultIters = 200

// Result is one measurement.
type Result struct {
	Spec Spec
	// MeanMicros is the average latency of one barrier in microseconds,
	// measured at rank 0 over the timed iterations — the paper's
	// methodology ("we ran 100,000 barriers consecutively and took the
	// average latency").
	MeanMicros float64
	// Barriers counts completions observed NIC-side across the cluster
	// (sanity: Nodes × (Warmup+Iters) for NIC-level runs).
	Barriers int64
	// Retrans counts frames re-sent across the cluster (go-back-N data
	// retransmissions plus reliable-barrier resends) — the recovery work
	// the fault plan forced.
	Retrans int64
	// Start and End bound the timed iterations at rank 0, in absolute
	// simulated time. The reliability experiments use them to aim fault
	// windows at the middle of a measured barrier.
	Start, End sim.Time
}

// MeasureBarrier is Run's Result, panicking on an error. It is one of the
// row-only wrappers the benchmark binds; ROADMAP item 7 removes them.
func MeasureBarrier(spec Spec) Result { return must(Run(spec, false)).Result }

// MeasureBarrierObserved is Run observed, panicking on an error. It is one of
// the row-only wrappers the benchmark binds; ROADMAP item 7 removes them.
func MeasureBarrierObserved(spec Spec) Observed { return must(Run(spec, true)).Observed }

// MeasureBarriers is RunAll's Results, panicking on an error. It is one of
// the row-only wrappers the benchmark binds; ROADMAP item 7 removes them.
func MeasureBarriers(specs []Spec) []Result {
	outs := must(RunAll(specs))
	rs := make([]Result, len(outs))
	for i, o := range outs {
		rs[i] = o.Result
	}
	return rs
}

// must unwraps the (value, error) of a harness call for the row-only
// wrappers above.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// RunAll runs every spec, fanning the independent simulations out over the
// runner pool. Outcomes come back in input order, bit-identical to calling
// Run serially (each run owns its Simulator; see internal/runner); an error
// is the first in input order.
func RunAll(specs []Spec) ([]Outcome, error) {
	type ran struct {
		out Outcome
		err error
	}
	rs := runner.Map(0, specs, func(s Spec) ran {
		out, err := Run(s, false)
		return ran{out, err}
	})
	outs := make([]Outcome, len(rs))
	for i, r := range rs {
		if r.err != nil {
			return nil, r.err
		}
		outs[i] = r.out
	}
	return outs, nil
}

// dimSweep is base at every tree dimension from 1 to n-1: a GB barrier's
// or a collective's.
func dimSweep(base Spec) []Spec {
	specs := make([]Spec, 0, base.Cluster.Nodes-1)
	for dim := 1; dim <= base.Cluster.Nodes-1; dim++ {
		base.Dim = dim
		specs = append(specs, base)
	}
	return specs
}

// bestDim folds a dimension sweep's results (dims 1..len) to the first
// dimension achieving the minimum latency — the same tie-break a serial
// in-order sweep applies.
func bestDim(results []Outcome) (int, float64) {
	bestDim, bestLat := 1, 0.0
	for i, r := range results {
		if i == 0 || r.MeanMicros < bestLat {
			bestDim, bestLat = i+1, r.MeanMicros
		}
	}
	return bestDim, bestLat
}

// OptimalDim sweeps base's tree dimension from 1 to n-1 and returns the
// dimension with the lowest mean latency and that latency — the paper's
// methodology for every GB data point ("we ran the test for every
// dimension from 1 to N-1 ... the latencies reported are the minimum over
// all dimensions"), applied to the collectives too. The per-dimension
// measurements run on the worker pool.
func OptimalDim(base Spec) (int, float64, error) {
	results, err := RunAll(dimSweep(base))
	if err != nil {
		return 0, 0, err
	}
	dim, lat := bestDim(results)
	return dim, lat, nil
}

// GBDimSweep returns the latency at every tree dimension (experiment E7),
// with the topology-aware tree mapping switched on or off — on a
// multi-switch config the mapped sweep shows how much of each dimension's
// latency the flat heap layout was paying in trunk hops.
func GBDimSweep(cfg cluster.Config, level Level, iters int, topoAware bool) ([]DimPoint, error) {
	results, err := RunAll(dimSweep(Spec{Cluster: cfg, Level: level, Alg: mcp.GB, TopoAware: topoAware, Iters: iters}))
	if err != nil {
		return nil, err
	}
	out := make([]DimPoint, 0, len(results))
	for i, r := range results {
		out = append(out, DimPoint{Dim: i + 1, Micros: r.MeanMicros})
	}
	return out, nil
}

// DimPoint is one point of the GB dimension sweep.
type DimPoint struct {
	Dim    int
	Micros float64
}

// Figure5Row is one node-count row of Figure 5(a) or 5(c): the four
// variants' latencies in microseconds, with the GB tree dimensions that
// achieved them.
type Figure5Row struct {
	Nodes                        int
	NICPE, NICGB, HostPE, HostGB float64
	NICGBDim, HostGBDim          int
}

// Figure5Latencies produces the latency rows of Figure 5(a) (LANai 4.3,
// sizes 2..16) or Figure 5(c) (LANai 7.2, sizes 2..8), depending on the
// cluster-config constructor passed in.
// Figure5Latencies flattens the whole figure — every size's two PE
// measurements plus both full GB dimension sweeps — into one job list for
// the worker pool, then folds the in-order results back into rows.
func Figure5Latencies(mkCfg func(n int) cluster.Config, sizes []int, iters int) ([]Figure5Row, error) {
	var specs []Spec
	offsets := make([]int, len(sizes))
	for i, n := range sizes {
		cfg := mkCfg(n)
		offsets[i] = len(specs)
		specs = append(specs,
			Spec{Cluster: cfg, Level: NICLevel, Alg: mcp.PE, Iters: iters},
			Spec{Cluster: cfg, Level: HostLevel, Alg: mcp.PE, Iters: iters})
		specs = append(specs, dimSweep(Spec{Cluster: cfg, Level: NICLevel, Alg: mcp.GB, Iters: iters})...)
		specs = append(specs, dimSweep(Spec{Cluster: cfg, Level: HostLevel, Alg: mcp.GB, Iters: iters})...)
	}
	results, err := RunAll(specs)
	if err != nil {
		return nil, err
	}
	rows := make([]Figure5Row, 0, len(sizes))
	for i, n := range sizes {
		o := offsets[i]
		dims := n - 1
		row := Figure5Row{
			Nodes:  n,
			NICPE:  results[o].MeanMicros,
			HostPE: results[o+1].MeanMicros,
		}
		row.NICGBDim, row.NICGB = bestDim(results[o+2 : o+2+dims])
		row.HostGBDim, row.HostGB = bestDim(results[o+2+dims : o+2+2*dims])
		rows = append(rows, row)
	}
	return rows, nil
}

// FactorRow is one row of Figure 5(b)/(d): factor of improvement
// (host latency / NIC latency) per algorithm.
type FactorRow struct {
	Nodes  int
	PE, GB float64
}

// Factors derives Figure 5(b)/(d) from latency rows.
func Factors(rows []Figure5Row) []FactorRow {
	out := make([]FactorRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, FactorRow{
			Nodes: r.Nodes,
			PE:    r.HostPE / r.NICPE,
			GB:    r.HostGB / r.NICGB,
		})
	}
	return out
}

// LANai43Sizes and LANai72Sizes are the node counts the paper evaluates on
// each card ("Tests were performed for 2, 4 and 8 nodes using LANai 4.3
// and the LANai 7.2 NICs, and for 16 nodes using LANai 4.3 NICs").
var (
	LANai43Sizes = []int{2, 4, 8, 16}
	LANai72Sizes = []int{2, 4, 8}
)

// Figure5a returns the LANai 4.3 latency rows.
func Figure5a(iters int) ([]Figure5Row, error) {
	return Figure5Latencies(cluster.DefaultConfig, LANai43Sizes, iters)
}

// Figure5b returns the LANai 4.3 factor rows.
func Figure5b(iters int) ([]FactorRow, error) {
	rows, err := Figure5a(iters)
	return Factors(rows), err
}

// Figure5c returns the LANai 7.2 latency rows.
func Figure5c(iters int) ([]Figure5Row, error) {
	return Figure5Latencies(cluster.LANai72Config, LANai72Sizes, iters)
}

// Figure5d returns the LANai 7.2 factor rows.
func Figure5d(iters int) ([]FactorRow, error) {
	rows, err := Figure5c(iters)
	return Factors(rows), err
}

// LayerOverheadPoint is one point of experiment E8: factor of improvement
// as a function of added per-message layer overhead.
type LayerOverheadPoint struct {
	OverheadMicros float64
	NICPE, HostPE  float64
	Factor         float64
}

// LayerOverheadSweep reproduces the paper's Equation-3 prediction that the
// factor of improvement grows as a messaging layer (e.g. MPI) adds
// per-message host overhead.
func LayerOverheadSweep(n int, overheadsMicros []float64, iters int) ([]LayerOverheadPoint, error) {
	specs := make([]Spec, 0, 2*len(overheadsMicros))
	for _, oh := range overheadsMicros {
		cfg := cluster.DefaultConfig(n)
		cfg.Host.LayerOverhead = sim.FromMicros(oh)
		specs = append(specs,
			Spec{Cluster: cfg, Level: NICLevel, Alg: mcp.PE, Iters: iters},
			Spec{Cluster: cfg, Level: HostLevel, Alg: mcp.PE, Iters: iters})
	}
	results, err := RunAll(specs)
	if err != nil {
		return nil, err
	}
	out := make([]LayerOverheadPoint, 0, len(overheadsMicros))
	for i, oh := range overheadsMicros {
		nic := results[2*i].MeanMicros
		hst := results[2*i+1].MeanMicros
		out = append(out, LayerOverheadPoint{
			OverheadMicros: oh, NICPE: nic, HostPE: hst, Factor: hst / nic,
		})
	}
	return out, nil
}

// PaperHeadlines collects the paper's published numbers for the
// calibration check and EXPERIMENTS.md.
type PaperHeadlines struct {
	NICPE16L43   float64 // 102.14 µs
	FactorPE16   float64 // 1.78
	NICGB16L43   float64 // 152.27 µs
	FactorGB16   float64 // 1.46
	NICPE8L72    float64 // 49.25 µs
	HostPE8L72   float64 // 90.24 µs
	FactorPE8L72 float64 // 1.83
	FactorPE8L43 float64 // 1.66
}

// Paper returns the published headline numbers.
func Paper() PaperHeadlines {
	return PaperHeadlines{
		NICPE16L43:   102.14,
		FactorPE16:   1.78,
		NICGB16L43:   152.27,
		FactorGB16:   1.46,
		NICPE8L72:    49.25,
		HostPE8L72:   90.24,
		FactorPE8L72: 1.83,
		FactorPE8L43: 1.66,
	}
}

// label names the operation: "PE", "GB(dim=4)", "allreduce(dim=2)",
// "streams".
func (s Spec) label() string {
	switch {
	case s.Op.collective():
		return fmt.Sprintf("%s(dim=%d)", s.Op.coll(), s.Dim)
	case s.Op > AllGather:
		return [...]string{"pingpong", "mpi-barrier", "bsp", "streams"}[s.Op-PingPong]
	case s.Alg == mcp.GB:
		return fmt.Sprintf("%s(dim=%d)", s.Alg, s.Dim)
	}
	return s.Alg.String()
}
