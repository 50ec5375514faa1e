package service

import (
	"flag"

	"gmsim/internal/topo"
)

// SpecFlags holds the experiment-spec command-line surface shared by
// cmd/barrierbench, cmd/sweep and the HTTP spec codec: one place defines
// the flag names, defaults and help text, so the CLIs and simd accept the
// identical spec vocabulary.
type SpecFlags struct {
	Topo      string
	Radix     int
	Nodes     int
	Dim       int
	FaultPlan string
	Seed      int64
}

// Spec flag names, for CLIs that ask which flags were set.
const (
	FlagTopo      = "topo"
	FlagRadix     = "radix"
	FlagNodes     = "nodes"
	FlagDim       = "dim"
	FlagFaultPlan = "faultplan"
	FlagSeed      = "seed"
)

// BindSpecFlags registers the experiment-spec flags on fs with the shared
// defaults and returns the value struct they fill.
func BindSpecFlags(fs *flag.FlagSet) *SpecFlags {
	sf := &SpecFlags{}
	fs.StringVar(&sf.Topo, FlagTopo, topo.Single.String(),
		"topology kind(s), comma-separated: single, twoswitch, star, clos2, clos3")
	fs.IntVar(&sf.Radix, FlagRadix, topo.DefaultRadix, "switch port count for multi-switch fabrics")
	fs.IntVar(&sf.Nodes, FlagNodes, 16, "cluster size (nodes)")
	fs.IntVar(&sf.Dim, FlagDim, 2, "GB tree dimension")
	fs.StringVar(&sf.FaultPlan, FlagFaultPlan, PlanNone,
		"fault plan: none, flap, corrupt, chaos, crash, partition")
	fs.Int64Var(&sf.Seed, FlagSeed, DefaultSeed, "fault plan seed")
	return sf
}

// FirstKind returns the first kind of the -topo list (the one single-
// fabric figures use).
func (sf *SpecFlags) FirstKind() (topo.Kind, error) {
	kinds, err := ParseKinds(sf.Topo)
	if err != nil {
		return 0, err
	}
	return kinds[0], nil
}
