package model

// GBDepth returns the depth of the dimension-dim gather-and-broadcast heap
// tree with n nodes: the level of the deepest rank (n-1), with the root at
// level 0. core's TestTreeDepthStar holds it to the depth of the tree
// core.GBTree builds; the model package stays free of simulator
// dependencies.
func GBDepth(n, dim int) int {
	if dim < 1 {
		return 0
	}
	depth := 0
	for i := n - 1; i > 0; i = (i - 1) / dim {
		depth++
	}
	return depth
}

// GBTerms carries the two segment values specific to the gather-and-
// broadcast barrier, in microseconds. The paper's Equation 2 is written
// for pairwise exchange; GB replaces the log2(N) symmetric steps with a
// gather sweep up the tree and a broadcast sweep down it, adding a
// one-time token-parse cost and a per-level forwarding cost.
type GBTerms struct {
	// Token is the one-time cost of parsing the GB barrier token at the
	// NIC (firmware BarrierToken + GBToken work).
	Token float64
	// Step is the per-tree-level NIC cost of receiving a gather (or
	// broadcast) frame and forwarding the next one (firmware GBPrep +
	// SendXmit + GBRecv work).
	Step float64
}

// GBTerms43 returns the LANai 4.3 values implied by the default firmware
// parameters at 33 MHz: Token = (180+400)/33 cycles, Step = (320+40+100)/33.
func GBTerms43() GBTerms {
	return GBTerms{Token: (180.0 + 400.0) / 33.0, Step: (320.0 + 40.0 + 100.0) / 33.0}
}

// NICBarrierGB extends Equation 2 to the gather-and-broadcast algorithm:
//
//	T = Send + Token + 2 × depth × (Network + Step) + (dim-1) × Step + RDMA + HRecv
//
// The critical path visits each of the tree's depth levels twice (gather
// up, broadcast down); Send, RDMA and HRecv bracket the exchange exactly
// as in the pairwise-exchange equation. The (dim-1)×Step term is root
// serialization: a parent's NIC processes its children's gather frames one
// at a time, so beyond the child already on the critical path, each
// remaining sibling costs one more Step. Interior-level serialization is
// partly hidden by subtree skew and is not modeled; the conformance tests
// bound the residual error against the simulator.
func (b Breakdown) NICBarrierGB(n, dim int, gb GBTerms) float64 {
	d := float64(GBDepth(n, dim))
	return b.Send + gb.Token + float64(2*d*(b.Network+gb.Step)) + float64(float64(dim-1)*gb.Step) + b.RDMA + b.HRecv
}
