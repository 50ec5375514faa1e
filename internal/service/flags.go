package service

import (
	"flag"

	"gmsim/internal/topo"
)

// Spec flag names, for CLIs that ask which flags were set.
const (
	FlagTopo      = "topo"
	FlagRadix     = "radix"
	FlagNodes     = "nodes"
	FlagDim       = "dim"
	FlagFaultPlan = "faultplan"
	FlagSeed      = "seed"
)

// BindSpecFlags registers the experiment-spec flags shared by
// cmd/barrierbench and cmd/sweep on fs, with one set of names, defaults and
// help texts, and binds them straight into the returned Spec's fields: a
// command fills the rest of the Spec and builds its runs with Canonicalize
// and Experiment, as simd does with a request.
func BindSpecFlags(fs *flag.FlagSet) *Spec {
	s := &Spec{}
	fs.StringVar(&s.Topo, FlagTopo, topo.Single.String(),
		"topology kind(s), comma-separated: single, twoswitch, star, clos2, clos3")
	fs.IntVar(&s.Radix, FlagRadix, topo.DefaultRadix, "switch port count for multi-switch fabrics")
	fs.IntVar(&s.Nodes, FlagNodes, 16, "cluster size (nodes)")
	fs.IntVar(&s.Dim, FlagDim, 2, "GB tree dimension")
	fs.StringVar(&s.FaultPlan, FlagFaultPlan, PlanNone,
		"fault plan: none, flap, corrupt, chaos, crash, partition")
	fs.Int64Var(&s.Seed, FlagSeed, DefaultSeed, "fault plan seed")
	return s
}
