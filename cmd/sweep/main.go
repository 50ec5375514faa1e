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
// cmd/barrierbench and the simd HTTP spec. With a non-single -topo the
// cluster is wired as the named multi-switch fabric (internal/topo) from
// radix-R switches and the GB tree is mapped onto it (intra-switch
// subtrees, one trunk crossing per leaf switch). An explicit -nodes
// overrides -sizes; an explicit -dim restricts the sweep to that dimension.
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

	"gmsim/internal/cluster"
	"gmsim/internal/experiments"
	"gmsim/internal/mcp"
	"gmsim/internal/runner"
	"gmsim/internal/service"
	"gmsim/internal/stats"
	"gmsim/internal/topo"
)

func main() {
	nicModel := flag.String("nic", "4.3", "NIC model: 4.3 or 7.2")
	levelArg := flag.String("level", "nic", "barrier placement: nic or host")
	sizesArg := flag.String("sizes", "4,8,16", "comma-separated node counts")
	iters := flag.Int("iters", 100, "timed iterations per point")
	tuned := flag.Bool("tuned", false, "measure only the model-tuned GB dimension instead of sweeping")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "simulation worker pool size (results are identical at any value)")
	sf := service.BindSpecFlags(flag.CommandLine)
	flag.Parse()
	runner.SetDefault(*parallel)
	if *iters < 1 {
		fmt.Fprintln(os.Stderr, "-iters must be at least 1")
		os.Exit(2)
	}

	kind, err := sf.FirstKind()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if service.FailStop(sf.FaultPlan) {
		fmt.Fprintf(os.Stderr, "-faultplan %s is fail-stop; dimension sweeps need completing clusters (use barrierbench -fig crash)\n", sf.FaultPlan)
		os.Exit(2)
	}

	mkCfg := cluster.DefaultConfig
	if *nicModel == "7.2" {
		mkCfg = cluster.LANai72Config
	} else if *nicModel != "4.3" {
		fmt.Fprintf(os.Stderr, "unknown NIC model %q\n", *nicModel)
		os.Exit(2)
	}
	topoAware := kind != topo.Single
	level := experiments.NICLevel
	if *levelArg == "host" {
		level = experiments.HostLevel
	} else if *levelArg != "nic" {
		fmt.Fprintf(os.Stderr, "unknown level %q\n", *levelArg)
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
	sizes := strings.Split(*sizesArg, ",")
	if nodesSet {
		sizes = []string{strconv.Itoa(sf.Nodes)}
	}

	for _, s := range sizes {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 2 {
			fmt.Fprintf(os.Stderr, "bad size %q\n", s)
			os.Exit(2)
		}
		cfg := mkCfg(n)
		if topoAware {
			tc := experiments.TopoConfig(kind, n, sf.Radix)
			cfg.Switch = tc.Switch
			cfg.Topology = tc.Topology
		}
		if plan, err := service.NamedPlan(sf.FaultPlan, sf.Seed, n); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		} else if plan != nil {
			cfg.Fault = plan
			cfg.ReliableBarrier = true
		}
		if err := cfg.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if *tuned {
			if dimSet {
				fmt.Fprintln(os.Stderr, "-tuned and -dim are mutually exclusive")
				os.Exit(2)
			}
			d := experiments.TunedGBDim(cfg)
			res := experiments.MeasureBarriers([]experiments.Spec{{
				Cluster: cfg, Level: level, Alg: mcp.GB, Dim: d,
				TopoAware: topoAware, Iters: *iters,
			}})
			tbl := stats.NewTable(
				fmt.Sprintf("%s-based GB barrier, %d nodes, LANai %s: model-tuned dimension",
					level, n, *nicModel),
				"Dim", "Latency (us)", "")
			tbl.AddRow(d, res[0].MeanMicros, "<- model-tuned (no sweep)")
			fmt.Print(tbl.String())
			fmt.Println()
			continue
		}
		pts := experiments.GBDimSweep(cfg, level, *iters, topoAware)
		if dimSet {
			kept := pts[:0]
			for _, p := range pts {
				if p.Dim == sf.Dim {
					kept = append(kept, p)
				}
			}
			if len(kept) == 0 {
				fmt.Fprintf(os.Stderr, "-dim %d out of range [1,%d] at %d nodes\n", sf.Dim, n-1, n)
				os.Exit(2)
			}
			pts = kept
		}
		best := pts[0]
		for _, p := range pts {
			if p.Micros < best.Micros {
				best = p
			}
		}
		fabric := ""
		if topoAware {
			fabric = fmt.Sprintf(", %s radix %d, mapped tree", kind, sf.Radix)
		}
		if sf.FaultPlan != service.PlanNone {
			fabric += fmt.Sprintf(", reliable, %s plan", sf.FaultPlan)
		}
		tbl := stats.NewTable(
			fmt.Sprintf("%s-based GB barrier, %d nodes, LANai %s%s: latency vs tree dimension",
				level, n, *nicModel, fabric),
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
