package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"gmsim/internal/cluster"
	"gmsim/internal/core"
	"gmsim/internal/gm"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/sim"
	"gmsim/internal/topo"
)

// partitionedBarrierTimes builds a 1024-node fat-tree cluster, runs iters
// barriers on every rank, and returns the per-rank completion times.
func partitionedBarrierTimes(t *testing.T, partitions, workers, iters int, alg mcp.BarrierAlg, dim int) [][]sim.Time {
	t.Helper()
	const nodes, radix = 1024, 16
	cfg := cluster.DefaultConfig(nodes)
	cfg.Topology = &topo.Spec{Kind: topo.Clos3, Radix: radix}
	cfg.Switch.Ports = radix
	cfg.ReliableBarrier = true
	cfg.Partitions = partitions
	cl := cluster.New(cfg)
	times := make([][]sim.Time, nodes)
	g := core.UniformGroup(nodes, 2)
	leafOf := cl.Topology().LeafOf()
	cl.SpawnAll(func(p *host.Process) {
		rank := p.Rank()
		port, err := gm.Open(p, cl.MCP(rank), 2)
		if err != nil {
			t.Errorf("rank %d: %v", rank, err)
			return
		}
		comm, err := core.NewComm(p, port, 4*nodes+16)
		if err != nil {
			t.Errorf("rank %d: %v", rank, err)
			return
		}
		comm.SetLeafMap(leafOf)
		for i := 0; i < iters; i++ {
			if err := comm.Barrier(p, alg, g, rank, dim); err != nil {
				t.Errorf("rank %d iter %d: %v", rank, i, err)
				return
			}
			times[rank] = append(times[rank], p.Now())
		}
	})
	cl.RunWorkers(workers)
	return times
}

// TestPartitioned1024Determinism is the acceptance guard for the
// conservative parallel engine at scale: a 1024-node Clos3 run split into
// 8 partitions — executed serially or on 4 workers — must produce
// bit-identical per-rank barrier completion times to the classic serial
// engine.
func TestPartitioned1024Determinism(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node fabric simulation is slow; skipped in -short")
	}
	const iters = 2
	for _, tc := range []struct {
		alg mcp.BarrierAlg
		dim int
	}{{mcp.PE, 0}, {mcp.GB, 8}} {
		tc := tc
		t.Run(fmt.Sprintf("alg=%v", tc.alg), func(t *testing.T) {
			serial := partitionedBarrierTimes(t, 1, 1, iters, tc.alg, tc.dim)
			for _, workers := range []int{1, 4} {
				part := partitionedBarrierTimes(t, 8, workers, iters, tc.alg, tc.dim)
				if !reflect.DeepEqual(serial, part) {
					for r := range serial {
						if !reflect.DeepEqual(serial[r], part[r]) {
							t.Fatalf("workers=%d: rank %d times diverge: serial %v, partitioned %v",
								workers, r, serial[r], part[r])
						}
					}
					t.Fatalf("workers=%d: partitioned run diverges from serial", workers)
				}
			}
		})
	}
}
