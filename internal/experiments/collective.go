package experiments

import (
	"gmsim/internal/cluster"
)

// Experiment E10 (extension): the paper's Section 8 hypothesis, measured.
// NIC-based vs host-based broadcast, reduce, allreduce and allgather
// latency, each a Spec measured by Run under the E10 protocol (see measure)
// and swept over the tree dimension like the GB barrier.

// CollRow is one node-count row of the collective comparison.
type CollRow struct {
	Nodes                     int
	NICBcast, HostBcast       float64
	NICReduce, HostReduce     float64
	NICAllRed, HostAllRed     float64
	NICAllGat, HostAllGat     float64
	FactorBcast, FactorAllRed float64
	FactorAllGat              float64
}

// CollectiveComparison produces the E10 table: optimal-dimension latencies
// for the four operations at both levels, elems int64s per rank. All sizes
// × operations × levels × dimensions go to the worker pool as one flat
// batch, then the in-order latencies fold back into rows.
func CollectiveComparison(mkCfg func(n int) cluster.Config, sizes []int, elems, iters int) ([]CollRow, error) {
	var specs []Spec
	for _, n := range sizes {
		cfg := mkCfg(n)
		for _, op := range []Op{Broadcast, Reduce, AllReduce, AllGather} {
			for _, level := range []Level{NICLevel, HostLevel} {
				specs = append(specs, dimSweep(Spec{Cluster: cfg, Level: level, Op: op, Elems: elems, Warmup: 3, Iters: iters})...)
			}
		}
	}
	results, err := RunAll(specs)
	if err != nil {
		return nil, err
	}
	rows := make([]CollRow, 0, len(sizes))
	i := 0
	for _, n := range sizes {
		dims := n - 1
		row := CollRow{Nodes: n}
		fields := []*float64{
			&row.NICBcast, &row.HostBcast,
			&row.NICReduce, &row.HostReduce,
			&row.NICAllRed, &row.HostAllRed,
			&row.NICAllGat, &row.HostAllGat,
		}
		for _, f := range fields {
			_, *f = bestDim(results[i : i+dims])
			i += dims
		}
		row.FactorBcast = row.HostBcast / row.NICBcast
		row.FactorAllRed = row.HostAllRed / row.NICAllRed
		row.FactorAllGat = row.HostAllGat / row.NICAllGat
		rows = append(rows, row)
	}
	return rows, nil
}
