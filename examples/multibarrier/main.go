// Multiple concurrent barriers (Section 3.4): GM allows up to eight ports
// per NIC, and "if a NIC can be used by more than one process, then the
// NIC-based barrier mechanism must be designed to allow multiple processes
// to initiate barrier operations concurrently".
//
// This example runs two independent process groups — one on port 2, one on
// port 3 — across the same four NICs. Each group barriers at its own rhythm;
// each port's barrier slot keeps its NIC-resident state separate, and the
// unexpected-message record is indexed by source port.
package main

import (
	"fmt"

	"gmsim/internal/cluster"
	"gmsim/internal/core"
	"gmsim/internal/gm"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/sim"
)

const (
	nodes    = 4
	barriers = 6
)

func main() {
	cl := cluster.New(cluster.DefaultConfig(nodes))

	type result struct {
		group, barrier int
		rank           int
		at             sim.Time
	}
	var results []result

	// Group A on port 2 barriers quickly; group B on port 3 computes
	// longer between barriers. They share every NIC.
	groups := []struct {
		port    int
		compute sim.Time
		alg     mcp.BarrierAlg
	}{
		{port: 2, compute: 10 * sim.Microsecond, alg: mcp.PE},
		{port: 3, compute: 60 * sim.Microsecond, alg: mcp.GB},
	}

	for gi, spec := range groups {
		gi, spec := gi, spec
		group := core.UniformGroup(nodes, spec.port)
		for node := 0; node < nodes; node++ {
			node := node
			cl.Spawn(node, node, func(p *host.Process) {
				gmPort, err := gm.Open(p, cl.MCP(node), spec.port)
				if err != nil {
					panic(err)
				}
				comm, err := core.NewComm(p, gmPort, 32)
				if err != nil {
					panic(err)
				}
				for b := 0; b < barriers; b++ {
					p.Compute(spec.compute)
					var err error
					if spec.alg == mcp.PE {
						err = comm.Barrier(p, mcp.PE, group, node, 0)
					} else {
						err = comm.Barrier(p, mcp.GB, group, node, 2)
					}
					if err != nil {
						panic(err)
					}
					if node == 0 {
						// Two processes append here in the order they run,
						// and a process runs ahead of the simulation's clock
						// by the host time the barrier call charged it: wait
						// that out, so the order is the order in time.
						p.Proc().Sync()
						results = append(results, result{gi, b, node, p.Now()})
					}
				}
			})
		}
	}
	cl.Run()

	fmt.Printf("two groups × %d barriers over the same %d NICs (group 0: PE on port 2; group 1: GB on port 3)\n\n",
		barriers, nodes)
	for _, r := range results {
		fmt.Printf("group %d barrier %d completed at %8.2fus\n", r.group, r.barrier, r.at.Micros())
	}

	// Show that the NIC really multiplexed both groups.
	st := cl.MCP(0).Stats()
	fmt.Printf("\nnode 0 firmware totals: %d barrier packets sent, %d barriers completed (both ports)\n",
		st.BarrierSent, st.BarrierCompleted)
}
