package experiments

import (
	"gmsim/internal/cluster"
	"gmsim/internal/mcp"
	"gmsim/internal/topo"
)

// Experiment E11 (extension): the paper's scalability claim — "this factor
// of improvement is expected to increase with the size of the system" —
// projected beyond the 16-node testbed on simulated larger switches.
type ScaleRow struct {
	Nodes         int
	NICPE, HostPE float64
	Factor        float64
}

// ScaleSweep measures the PE barrier at both levels for each size, fanning
// all 2·len(sizes) whole-cluster simulations out over the worker pool.
// Sizes beyond the largest single switch the era offered (16 ports) split
// the nodes across two switches.
func ScaleSweep(sizes []int, iters int) ([]ScaleRow, error) {
	specs := make([]Spec, 0, 2*len(sizes))
	for _, n := range sizes {
		cfg := cluster.DefaultConfig(n)
		if n > 16 {
			cfg.Topology = &topo.Spec{Kind: topo.TwoSwitch}
		}
		specs = append(specs,
			Spec{Cluster: cfg, Level: NICLevel, Alg: mcp.PE, Iters: iters},
			Spec{Cluster: cfg, Level: HostLevel, Alg: mcp.PE, Iters: iters})
	}
	results, err := RunAll(specs)
	if err != nil {
		return nil, err
	}
	rows := make([]ScaleRow, 0, len(sizes))
	for i, n := range sizes {
		nic := results[2*i].MeanMicros
		hst := results[2*i+1].MeanMicros
		rows = append(rows, ScaleRow{Nodes: n, NICPE: nic, HostPE: hst, Factor: hst / nic})
	}
	return rows, nil
}

// Experiment E8b (extension): the Equation-3 prediction realized with a
// real messaging layer instead of a synthetic overhead knob — MPI_Barrier
// over the mpi package, backed by the host-based vs NIC-based barrier.
type MPIRow struct {
	Nodes               int
	NICBacked, HostBack float64
	Factor              float64
	RawFactor           float64
}

// MPIBarrierComparison measures MPI_Barrier latency with each backend and
// the raw-GM factor for reference. The four measurements per size are
// independent simulations, so they all go to the worker pool as one batch.
func MPIBarrierComparison(sizes []int, iters int) ([]MPIRow, error) {
	specs := make([]Spec, 0, 4*len(sizes))
	for _, n := range sizes {
		cfg := cluster.DefaultConfig(n)
		specs = append(specs,
			Spec{Cluster: cfg, Level: NICLevel, Op: MPIBarrier, Iters: iters},
			Spec{Cluster: cfg, Level: HostLevel, Op: MPIBarrier, Iters: iters},
			Spec{Cluster: cfg, Level: NICLevel, Alg: mcp.PE, Iters: iters},
			Spec{Cluster: cfg, Level: HostLevel, Alg: mcp.PE, Iters: iters})
	}
	results, err := RunAll(specs)
	if err != nil {
		return nil, err
	}
	rows := make([]MPIRow, 0, len(sizes))
	for i, n := range sizes {
		nicLat, hostLat := results[4*i].MeanMicros, results[4*i+1].MeanMicros
		rawNIC, rawHost := results[4*i+2].MeanMicros, results[4*i+3].MeanMicros
		rows = append(rows, MPIRow{
			Nodes: n, NICBacked: nicLat, HostBack: hostLat,
			Factor: hostLat / nicLat, RawFactor: rawHost / rawNIC,
		})
	}
	return rows, nil
}
