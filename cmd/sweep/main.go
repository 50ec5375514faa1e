// Command sweep exposes the paper's GB tree-dimension methodology
// (Section 6): for each barrier size it prints the latency at every tree
// dimension from 1 to N-1 and marks the optimum. The Figure 5 GB numbers
// are the minima of these sweeps.
//
// Usage:
//
//	sweep [-nic 4.3|7.2] [-level nic|host] [-sizes 4,8,16] [-iters N] [-parallel W]
//	sweep -topo star|clos2|clos3 [-radix R] [-sizes 32,64] ...
//	sweep -faultplan corrupt [-seed S]        # reliable barrier under faults
//	sweep -nodes 16 -dim 4                    # one size, one dimension
//	sweep -tuned -topo clos3 -radix 32 -nodes 8192   # model-tuned dim only
//
// The spec flags (-topo, -radix, -nodes, -dim, -faultplan, -seed) are the
// shared vocabulary of internal/service: the same names and defaults as
// cmd/barrierbench and the simd HTTP spec. Each size is one service.Spec,
// built into its cluster the way simd builds a request. With a non-single
// -topo (one kind) the cluster is wired as the named multi-switch fabric
// (internal/topo) from radix-R switches and the GB tree is mapped onto it
// (intra-switch subtrees, one trunk crossing per leaf switch). An explicit
// -nodes overrides -sizes; an explicit -dim measures only that dimension.
//
// -tuned replaces the exhaustive dimension sweep with the closed-form
// steady-state model (internal/model): it measures only the model's argmin
// dimension, which makes sweeping sizes like 8192 practical.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"gmsim/internal/experiments"
	"gmsim/internal/runner"
	"gmsim/internal/service"
	"gmsim/internal/stats"
	"gmsim/internal/topo"
)

func main() {
	s := service.BindSpecFlags(flag.CommandLine)
	flag.StringVar(&s.NIC, "nic", "4.3", "NIC model: 4.3 or 7.2")
	flag.StringVar(&s.Level, "level", "nic", "barrier placement: nic or host")
	sizesArg := flag.String("sizes", "4,8,16", "comma-separated node counts")
	flag.IntVar(&s.Iters, "iters", 100, "timed iterations per point")
	tuned := flag.Bool("tuned", false, "measure only the model-tuned GB dimension instead of sweeping")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "simulation worker pool size (results are identical at any value)")
	flag.Parse()
	runner.SetDefault(*parallel)
	if s.Iters < 1 {
		fmt.Fprintln(os.Stderr, "-iters must be at least 1")
		os.Exit(2)
	}

	// An explicit -nodes wins over the -sizes list; an explicit -dim
	// restricts each sweep to that single dimension.
	nodesSet, dimSet := false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case service.FlagNodes:
			nodesSet = true
		case service.FlagDim:
			dimSet = true
		}
	})
	if *tuned && dimSet {
		fmt.Fprintln(os.Stderr, "-tuned and -dim are mutually exclusive")
		os.Exit(2)
	}
	sizes := strings.Split(*sizesArg, ",")
	if nodesSet {
		sizes = []string{strconv.Itoa(s.Nodes)}
	}
	s.Alg = "gb"
	if !dimSet {
		s.Dim = 1 // any valid dimension: the sweep sets its own
	}

	for _, size := range sizes {
		n, err := strconv.Atoi(strings.TrimSpace(size))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad size %q\n", size)
			os.Exit(2)
		}
		s.Nodes = n
		var spec experiments.Spec
		c, err := s.Canonicalize()
		if err == nil {
			spec, err = c.Experiment()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if service.FailStop(c.FaultPlan) {
			fmt.Fprintf(os.Stderr, "-faultplan %s is fail-stop; dimension sweeps need completing clusters (use barrierbench -fig crash)\n", c.FaultPlan)
			os.Exit(2)
		}
		// On a multi-switch fabric the tree is mapped onto the leaves.
		spec.TopoAware = c.Topo != topo.Single.String()
		if *tuned {
			spec.Dim = experiments.TunedGBDim(spec.Cluster)
			out, err := experiments.Run(spec, false)
			exitOn(err)
			tbl := stats.NewTable(
				fmt.Sprintf("%s-based GB barrier, %d nodes, LANai %s: model-tuned dimension",
					spec.Level, n, c.NIC),
				"Dim", "Latency (us)", "")
			tbl.AddRow(spec.Dim, out.MeanMicros, "<- model-tuned (no sweep)")
			fmt.Print(tbl.String())
			fmt.Println()
			continue
		}
		var pts []experiments.DimPoint
		if dimSet {
			var out experiments.Outcome
			out, err = experiments.Run(spec, false)
			pts = []experiments.DimPoint{{Dim: spec.Dim, Micros: out.MeanMicros}}
		} else {
			pts, err = experiments.GBDimSweep(spec.Cluster, spec.Level, spec.Iters, spec.TopoAware)
		}
		exitOn(err)
		best := pts[0]
		for _, p := range pts {
			if p.Micros < best.Micros {
				best = p
			}
		}
		fabric := ""
		if spec.TopoAware {
			fabric = fmt.Sprintf(", %s radix %d, mapped tree", c.Topo, c.Radix)
		}
		if c.FaultPlan != service.PlanNone {
			fabric += fmt.Sprintf(", reliable, %s plan", c.FaultPlan)
		}
		tbl := stats.NewTable(
			fmt.Sprintf("%s-based GB barrier, %d nodes, LANai %s%s: latency vs tree dimension",
				spec.Level, n, c.NIC, fabric),
			"Dim", "Latency (us)", "")
		for _, p := range pts {
			mark := ""
			if p.Dim == best.Dim && len(pts) > 1 {
				mark = "<- optimal (reported in Figure 5)"
			}
			tbl.AddRow(p.Dim, p.Micros, mark)
		}
		fmt.Print(tbl.String())
		fmt.Println()
	}
}

// exitOn ends the command with err's one line on stderr and exit status 1,
// unless err is nil.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
