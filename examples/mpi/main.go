// MPI layer example: a distributed dot-product solver written against the
// mpi package, run twice — once with stock host-backed MPI_Barrier /
// collectives (MPICH-over-GM style) and once with the paper's NIC-backed
// operations plugged in underneath. The application code is identical;
// only the layer configuration changes, which is exactly how the paper
// envisioned the NIC-based barrier being deployed ("we expect that our
// NIC-based barrier would show an even greater improvement over host-based
// barrier with these layers").
package main

import (
	"fmt"
	"os"

	"gmsim/internal/cluster"
	"gmsim/internal/core"
	"gmsim/internal/gm"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/mpi"
	"gmsim/internal/sim"
)

const (
	nodes      = 8
	iterations = 25
	vectorLen  = 1 << 14 // elements per rank
	flopCost   = 2       // ns of host time per element per iteration
)

// run executes the solver: each iteration does local work, an Allreduce of
// the partial dot products, and a Barrier before the next step.
func run(cfg mpi.Config) (result int64, elapsed sim.Time) {
	cl := cluster.New(cluster.DefaultConfig(nodes))
	g := core.UniformGroup(nodes, 2)
	cl.SpawnAll(func(p *host.Process) {
		rank := p.Rank()
		port, err := gm.Open(p, cl.MCP(rank), 2)
		if err != nil {
			panic(err)
		}
		comm, err := core.NewComm(p, port, 64)
		if err != nil {
			panic(err)
		}
		w, err := mpi.NewWorld(comm, g, rank, cfg)
		if err != nil {
			panic(err)
		}
		var acc int64
		for it := 0; it < iterations; it++ {
			// Local partial dot product (modeled host compute).
			p.Compute(sim.Time(vectorLen * flopCost))
			partial := int64(rank+1) * int64(it+1)
			// Global sum.
			sum, err := w.Allreduce(p, mcp.OpSum, []int64{partial})
			if err != nil {
				panic(err)
			}
			acc += sum[0]
			// Synchronize before mutating shared structures.
			if err := w.Barrier(p); err != nil {
				panic(err)
			}
		}
		if rank == 0 {
			result = acc
			elapsed = p.Now()
		}
	})
	cl.Run()
	return result, elapsed
}

func main() {
	stock := mpi.DefaultConfig() // host-backed barrier + collectives

	nicCfg := mpi.DefaultConfig()
	nicCfg.UseNICBarrier = true
	nicCfg.UseNICCollectives = true

	r1, t1 := run(stock)
	r2, t2 := run(nicCfg)

	fmt.Printf("distributed solver: %d ranks, %d iterations of compute + Allreduce + Barrier\n\n", nodes, iterations)
	fmt.Printf("  stock MPI (host-backed):   result=%d  %10.2fus\n", r1, t1.Micros())
	fmt.Printf("  NIC-backed MPI:            result=%d  %10.2fus\n", r2, t2.Micros())
	if r1 != r2 {
		fmt.Fprintln(os.Stderr, "\nERROR: results differ!")
		os.Exit(1)
	}
	fmt.Printf("\nidentical results, %.1f%% faster end-to-end with NIC-based collectives —\n",
		100*float64(t1-t2)/float64(t1))
	fmt.Println("the synchronization cost removed from every iteration's critical path.")
}
