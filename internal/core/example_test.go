package core_test

import (
	"fmt"

	"gmsim/internal/cluster"
	"gmsim/internal/core"
	"gmsim/internal/gm"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
)

// Run one NIC-based pairwise-exchange barrier across a 4-node cluster.
func ExampleComm_Barrier() {
	cl := cluster.New(cluster.DefaultConfig(4))
	group := core.UniformGroup(4, 2)
	passed := 0
	cl.SpawnAll(func(p *host.Process) {
		port, err := gm.Open(p, cl.MCP(p.Rank()), 2)
		if err != nil {
			panic(err)
		}
		comm, err := core.NewComm(p, port, 16)
		if err != nil {
			panic(err)
		}
		if err := comm.Barrier(p, mcp.PE, group, p.Rank(), 0); err != nil {
			panic(err)
		}
		passed++
	})
	cl.Run()
	fmt.Printf("%d ranks passed the barrier\n", passed)
	// Output: 4 ranks passed the barrier
}

// Combine values across the cluster with a NIC-level allreduce — the
// paper's Section 8 future work.
func ExampleComm_NICAllReduce() {
	cl := cluster.New(cluster.DefaultConfig(4))
	group := core.UniformGroup(4, 2)
	results := make([]int64, 4)
	cl.SpawnAll(func(p *host.Process) {
		rank := p.Rank()
		port, err := gm.Open(p, cl.MCP(rank), 2)
		if err != nil {
			panic(err)
		}
		comm, err := core.NewComm(p, port, 16)
		if err != nil {
			panic(err)
		}
		out, err := comm.NICAllReduce(p, group, rank, 2, mcp.OpSum,
			core.EncodeInt64s([]int64{int64(rank + 1)}))
		if err != nil {
			panic(err)
		}
		results[rank] = core.DecodeInt64s(out)[0]
	})
	cl.Run()
	fmt.Println("every rank holds the sum:", results)
	// Output: every rank holds the sum: [10 10 10 10]
}

// The PE schedule for rank 5 of a 16-process barrier: the peers it will
// exchange messages with, in order (recursive doubling).
func ExamplePESchedule() {
	sched, _ := core.PESchedule(5, 16)
	fmt.Println(sched)
	// Output: [4 7 1 13]
}

// The GB tree neighborhood the host computes and hands to the NIC.
func ExampleGBTree() {
	parent, children, _ := core.GBTree(1, 8, 3, nil)
	fmt.Println("parent:", parent, "children:", children)
	// Output: parent: 0 children: [4 5 6]
}
