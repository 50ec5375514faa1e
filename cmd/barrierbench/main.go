// Command barrierbench reproduces the paper's Figure 5: barrier latencies
// and factors of improvement for NIC-based and host-based barriers, both
// algorithms (PE and GB), on simulated LANai 4.3 and LANai 7.2 clusters.
//
// Usage:
//
//	barrierbench [-fig 5a|5b|5c|5d|mpi|all] [-iters N] [-parallel W]
//	barrierbench -fig rel [-loss 0,0.5,1,2,5] [-faultplan none|flap|corrupt|chaos] [-nodes N] [-dim D]
//	barrierbench -fig flap [-nodes N] [-dim D] [-outage US]
//	barrierbench -fig crash [-faultplan crash|partition] [-nodes N] [-dim D]
//	barrierbench -fig topo [-topo single,star,clos3] [-sizes 16,...,1024] [-radix R]
//	barrierbench -fig topo -tuned [-sizes 1024,8192,16384] [-radix 32]
//	barrierbench -fig contend [-radix R] [-bytes B]
//	barrierbench -dumptopo FILE [-topo KIND] [-nodes N] [-radix R]
//	barrierbench -metrics [-nodes N] [-dim D] [-iters N]
//
// -metrics runs one observed NIC-PE and one NIC-GB measurement with the
// full-stack tracer attached and dumps the cluster's metrics registry
// (packet, retransmit, firmware and per-phase counters) plus the Section
// 2.2 decomposition of the timed window.
//
// GB rows report the minimum latency over all tree dimensions 1..N-1 and
// the dimension that achieved it, matching the paper's methodology. With
// -fig topo, -tuned swaps the exhaustive dimension sweep for the
// closed-form steady-state model (internal/model), which is what makes
// 8192- and 16384-node rows practical to measure.
// Independent measurements fan out over -parallel workers (default
// GOMAXPROCS); results are bit-identical at any worker count.
//
// The reliability figures go beyond the paper's zero-loss benchmarks: -fig
// rel sweeps packet loss over the reliable Section-4.4 barriers against
// the host baseline (optionally on top of a named base fault plan), and
// -fig flap measures recovery latency after a mid-barrier link outage.
//
// -fig crash goes further, into fail-stop faults: with failure detection
// enabled, a node is killed (-faultplan crash) or its cable permanently cut
// (-faultplan partition) mid-run, and the survivors repair the barrier
// around the corpse. The figure prints both scenario summaries (survivor
// sets, repair work, drain time) and the crash-detection latency table as
// a function of the firmware retry budget.
//
// The topology figures go beyond the paper's single 16-port crossbar:
// -fig topo sweeps the barriers over declarative multi-switch fabrics
// (internal/topo) up to the 1024 nodes a radix-16 fat-tree supports,
// -fig contend measures trunk contention on a star of switches, and
// -dumptopo writes any fabric as Graphviz DOT for inspection.
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
	"gmsim/internal/fault"
	"gmsim/internal/mcp"
	"gmsim/internal/network"
	"gmsim/internal/runner"
	"gmsim/internal/service"
	"gmsim/internal/sim"
	"gmsim/internal/stats"
	"gmsim/internal/topo"
)

// defaultTopoList is the classic -fig topo sweep when -topo is left unset
// (the shared spec flag defaults to just "single").
const defaultTopoList = "single,star,clos3"

func main() {
	fig := flag.String("fig", "all", "which figure to reproduce: 5a, 5b, 5c, 5d, mpi, mpibar, coll, scale, grain, rel, flap, crash, topo, contend, all")
	iters := flag.Int("iters", experiments.DefaultIters, "timed barrier iterations per point")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "simulation worker pool size (results are identical at any value)")
	loss := flag.String("loss", "0,0.5,1,2,5", "comma-separated per-hop loss percentages for -fig rel")
	spec := service.BindSpecFlags(flag.CommandLine)
	outage := flag.Float64("outage", 200, "link outage duration in microseconds for -fig flap")
	sizesFlag := flag.String("sizes", "16,32,64,128,256,512,1024", "comma-separated node counts for -fig topo")
	tuned := flag.Bool("tuned", false, "for -fig topo: pick GB dims from the steady-state model instead of sweeping")
	bytesFlag := flag.Int("bytes", 4096, "message size for -fig contend streams")
	dumptopo := flag.String("dumptopo", "", "write the -topo/-nodes/-radix fabric as Graphviz DOT to this file ('-' for stdout) and exit")
	metrics := flag.Bool("metrics", false, "run observed -nodes measurements and dump the metrics registry, then exit")
	flag.Parse()
	runner.SetDefault(*parallel)
	if *iters < 1 {
		fmt.Fprintln(os.Stderr, "-iters must be at least 1")
		os.Exit(2)
	}

	topoList := spec.Topo
	topoSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == service.FlagTopo {
			topoSet = true
		}
	})
	if !topoSet && *fig == "topo" {
		topoList = defaultTopoList
	}
	kinds, err := service.ParseKinds(topoList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -topo: %v\n", err)
		os.Exit(2)
	}
	if *metrics {
		exitOn(printMetrics(spec.Nodes, spec.Dim, *iters))
		return
	}
	if *dumptopo != "" {
		if err := writeDOT(*dumptopo, kinds[0], spec.Nodes, spec.Radix); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	switch *fig {
	case "5a":
		rows, err := experiments.Figure5a(*iters)
		exitOn(err)
		printLatencies("Figure 5(a): barrier latency (us), LANai 4.3", rows)
	case "5b":
		rows, err := experiments.Figure5b(*iters)
		exitOn(err)
		printFactors("Figure 5(b): factor of improvement, LANai 4.3", rows)
	case "5c":
		rows, err := experiments.Figure5c(*iters)
		exitOn(err)
		printLatencies("Figure 5(c): barrier latency (us), LANai 7.2", rows)
	case "5d":
		rows, err := experiments.Figure5d(*iters)
		exitOn(err)
		printFactors("Figure 5(d): factor of improvement, LANai 7.2", rows)
	case "mpi":
		exitOn(printLayerSweep(*iters))
	case "coll":
		exitOn(printCollectives(*iters))
	case "scale":
		exitOn(printScale(*iters))
	case "grain":
		exitOn(printGranularity(*iters))
	case "mpibar":
		exitOn(printMPIBarrier(*iters))
	case "rel":
		pcts, err := parseLossList(*loss)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -loss: %v\n", err)
			os.Exit(2)
		}
		if service.FailStop(spec.FaultPlan) {
			fmt.Fprintf(os.Stderr, "-fig rel wants a non-fail-stop -faultplan (none, flap, corrupt, chaos); %q belongs to -fig crash\n", spec.FaultPlan)
			os.Exit(2)
		}
		base, err := service.NamedPlan(spec.FaultPlan, spec.Seed, spec.Nodes)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		exitOn(printReliability(spec.Nodes, pcts, spec.Dim, *iters, spec.FaultPlan, base))
	case "flap":
		exitOn(printFlap(spec.Nodes, spec.Dim, sim.FromMicros(*outage), spec.Seed))
	case "crash":
		printCrash(service.Spec{Nodes: spec.Nodes, Dim: spec.Dim, FaultPlan: spec.FaultPlan, Seed: spec.Seed})
	case "topo":
		sizes, err := parseIntList(*sizesFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -sizes: %v\n", err)
			os.Exit(2)
		}
		exitOn(printTopoScale(kinds, sizes, spec.Radix, *iters, *tuned))
	case "contend":
		exitOn(printContention(spec.Radix, *bytesFlag, *iters))
	case "all":
		rows43, err := experiments.Figure5a(*iters)
		exitOn(err)
		rows72, err := experiments.Figure5c(*iters)
		exitOn(err)
		printLatencies("Figure 5(a): barrier latency (us), LANai 4.3", rows43)
		fmt.Println()
		printFactors("Figure 5(b): factor of improvement, LANai 4.3", experiments.Factors(rows43))
		fmt.Println()
		printLatencies("Figure 5(c): barrier latency (us), LANai 7.2", rows72)
		fmt.Println()
		printFactors("Figure 5(d): factor of improvement, LANai 7.2", experiments.Factors(rows72))
		fmt.Println()
		printHeadlines(rows43, rows72)
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
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

func printLatencies(title string, rows []experiments.Figure5Row) {
	t := stats.NewTable(title, "Nodes", "NIC-PE", "NIC-GB", "Host-PE", "Host-GB", "NIC-GB dim", "Host-GB dim")
	for _, r := range rows {
		t.AddRow(r.Nodes, r.NICPE, r.NICGB, r.HostPE, r.HostGB, r.NICGBDim, r.HostGBDim)
	}
	fmt.Print(t.String())
}

func printFactors(title string, rows []experiments.FactorRow) {
	t := stats.NewTable(title, "Nodes", "PE", "GB")
	for _, r := range rows {
		t.AddRow(r.Nodes, r.PE, r.GB)
	}
	fmt.Print(t.String())
}

func printLayerSweep(iters int) error {
	pts, err := experiments.LayerOverheadSweep(8, []float64{0, 5, 10, 20, 40}, iters)
	if err != nil {
		return err
	}
	t := stats.NewTable("Factor of improvement vs added layer overhead (8 nodes, LANai 4.3, PE)",
		"Overhead (us/msg)", "NIC-PE (us)", "Host-PE (us)", "Factor")
	for _, p := range pts {
		t.AddRow(p.OverheadMicros, p.NICPE, p.HostPE, p.Factor)
	}
	fmt.Print(t.String())
	return nil
}

func printCollectives(iters int) error {
	rows, err := experiments.CollectiveComparison(cluster.DefaultConfig, []int{2, 4, 8, 16}, 4, iters)
	if err != nil {
		return err
	}
	t := stats.NewTable("NIC-based vs host-based collectives (Section 8 future work), LANai 4.3, 4x int64, optimal tree dim (us)",
		"Nodes", "NIC-bcast", "Host-bcast", "NIC-reduce", "Host-reduce",
		"NIC-allred", "Host-allred", "NIC-allgat", "Host-allgat",
		"Bcast factor", "Allred factor", "Allgat factor")
	for _, r := range rows {
		t.AddRow(r.Nodes, r.NICBcast, r.HostBcast, r.NICReduce, r.HostReduce,
			r.NICAllRed, r.HostAllRed, r.NICAllGat, r.HostAllGat,
			r.FactorBcast, r.FactorAllRed, r.FactorAllGat)
	}
	fmt.Print(t.String())
	return nil
}

func printScale(iters int) error {
	rows, err := experiments.ScaleSweep([]int{2, 4, 8, 16, 32, 64, 128}, iters)
	if err != nil {
		return err
	}
	t := stats.NewTable("PE barrier scalability projection, LANai 4.3 (two-level switches beyond 16 nodes)",
		"Nodes", "NIC-PE (us)", "Host-PE (us)", "Factor")
	for _, r := range rows {
		t.AddRow(r.Nodes, r.NICPE, r.HostPE, r.Factor)
	}
	fmt.Print(t.String())
	return nil
}

func printGranularity(iters int) error {
	grains := []float64{10, 25, 50, 100, 250, 500, 1000}
	pts, err := experiments.GranularitySweep(16, grains, 0.2, iters)
	if err != nil {
		return err
	}
	t := stats.NewTable("BSP granularity study, 16 nodes, LANai 4.3, 20% compute imbalance",
		"Grain (us)", "NIC iter (us)", "Host iter (us)", "NIC efficiency", "Host efficiency")
	for _, p := range pts {
		t.AddRow(p.GrainMicros, p.NICIter, p.HostIter, p.NICEff, p.HostEff)
	}
	fmt.Print(t.String())
	fmt.Printf("\nbreak-even grain (50%% efficiency): NIC %.0fus, host %.0fus\n",
		experiments.BreakEvenGrain(pts, true, 0.5),
		experiments.BreakEvenGrain(pts, false, 0.5))
	return nil
}

func printMPIBarrier(iters int) error {
	rows, err := experiments.MPIBarrierComparison([]int{2, 4, 8, 16}, iters)
	if err != nil {
		return err
	}
	t := stats.NewTable("MPI_Barrier over the mpi layer: NIC-backed vs host-backed (LANai 4.3)",
		"Nodes", "NIC-backed (us)", "Host-backed (us)", "MPI factor", "Raw-GM factor")
	for _, r := range rows {
		t.AddRow(r.Nodes, r.NICBacked, r.HostBack, r.Factor, r.RawFactor)
	}
	fmt.Print(t.String())
	return nil
}

// parseIntList parses a comma-separated list of positive integers.
func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		if v < 1 {
			return nil, fmt.Errorf("size %d out of range", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// writeDOT builds the requested fabric and writes its Graphviz DOT form.
func writeDOT(path string, kind topo.Kind, nodes, radix int) error {
	spec := topo.Spec{Kind: kind, Nodes: nodes, Radix: radix, AllowExpand: kind == topo.Single}
	t, err := topo.Build(spec)
	if err != nil {
		return err
	}
	lp := network.DefaultLinkParams()
	label := fmt.Sprintf("%s: %d nodes, radix %d (%d switches, %d trunks)\nlink %.0f MB/s, switch route delay %v",
		kind, nodes, radix, t.Switches(), len(t.Trunks), lp.BandwidthMBps, network.DefaultSwitchParams(radix).RouteDelay)
	dot := t.DOT(label)
	if path == "-" {
		_, err = fmt.Print(dot)
		return err
	}
	return os.WriteFile(path, []byte(dot), 0o644)
}

func printTopoScale(kinds []topo.Kind, sizes []int, radix, iters int, tuned bool) error {
	rows, err := experiments.TopoScaleSweep(experiments.TopoSweep{
		Kinds: kinds, Sizes: sizes, Radix: radix, Iters: iters, Tuned: tuned,
	})
	if err != nil {
		return err
	}
	dimNote := "best dim"
	if tuned {
		dimNote = "model-tuned dim"
	}
	t := stats.NewTable(
		fmt.Sprintf("Barrier latency across switch topologies, LANai 4.3, radix-%d switches (us; GB topology-aware, %s)", radix, dimNote),
		"Topology", "Nodes", "Switches", "Diam", "NIC-PE", "Host-PE", "NIC-GB", "Host-GB",
		"NIC dim", "Host dim", "PE factor", "GB factor")
	have := make(map[[2]int]bool, len(rows))
	for _, r := range rows {
		t.AddRow(r.Kind.String(), r.Nodes, r.Switches, r.Diameter,
			r.NICPE, r.HostPE, r.NICGB, r.HostGB,
			r.NICGBDim, r.HostGBDim, r.FactorPE, r.FactorGB)
		have[[2]int{int(r.Kind), r.Nodes}] = true
	}
	fmt.Print(t.String())
	for _, k := range kinds {
		for _, n := range sizes {
			if n >= 2 && !have[[2]int{int(k), n}] {
				spec := topo.Spec{Kind: k, Nodes: n, Radix: radix, AllowExpand: k == topo.Single}
				_, err := topo.Build(spec)
				fmt.Printf("skipped %s at %d nodes: %v\n", k, n, err)
			}
		}
	}
	return nil
}

func printContention(radix, bytes, iters int) error {
	rows, err := experiments.CrossSwitchContention(radix, []int{1, 2, 3, 4, 5, 6, 7}, bytes, iters)
	if err != nil {
		return err
	}
	t := stats.NewTable(
		fmt.Sprintf("Cross-switch trunk contention on a star of radix-%d switches (%d-byte streams, us/message)", radix, bytes),
		"Pairs", "Intra-switch", "Cross-switch", "Slowdown")
	for _, r := range rows {
		t.AddRow(r.Pairs, r.IntraMicros, r.CrossMicros, r.Slowdown)
	}
	fmt.Print(t.String())
	return nil
}

// parseLossList parses the -loss flag: comma-separated percentages.
func parseLossList(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, err
		}
		if v < 0 || v > 100 {
			return nil, fmt.Errorf("loss %v%% out of range", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty loss list")
	}
	return out, nil
}

func printReliability(nodes int, pcts []float64, dim, iters int, planName string, base *fault.Plan) error {
	pts, err := experiments.ReliabilitySweep(nodes, pcts, dim, iters, base)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Reliable barriers under packet loss: %d nodes, LANai 4.3, GB dim %d, base plan %q (us; retrans = frames re-sent per run)",
		nodes, dim, planName)
	t := stats.NewTable(title,
		"Loss %", "Rel NIC-PE", "Rel NIC-GB", "Host-PE", "Unrel NIC-PE",
		"PE retrans", "GB retrans", "Host retrans")
	for _, p := range pts {
		unrel := any("-")
		if p.LossPct == 0 && p.UnrelPE != 0 {
			unrel = p.UnrelPE
		}
		t.AddRow(p.LossPct, p.RelPE, p.RelGB, p.HostPE, unrel,
			p.RelPERetrans, p.RelGBRetrans, p.HostPERetrans)
	}
	fmt.Print(t.String())
	return nil
}

func printFlap(nodes, dim int, outage sim.Time, seed int64) error {
	r, err := experiments.FlapRecovery(nodes, dim, outage, seed)
	if err != nil {
		return err
	}
	t := stats.NewTable(fmt.Sprintf("Recovery after a mid-barrier link flap: %d nodes, reliable GB dim %d", nodes, dim),
		"Metric", "Value")
	t.AddRow("outage (us)", r.OutageMicros)
	t.AddRow("baseline barrier (us)", r.BaselineMicros)
	t.AddRow("faulted barrier (us)", r.FaultedMicros)
	t.AddRow("recovery cost (us)", r.RecoveryMicros)
	t.AddRow("repair retransmissions", r.Retrans)
	fmt.Print(t.String())
	return nil
}

// printCrash runs the crash-tolerance figure on the single crossbar: a PE
// and a GB scenario of s with failure detection enabled, against a
// fail-stop of node n/2 at t=700us — a NIC crash (-faultplan crash, the
// default) or a persistent cable cut (-faultplan partition) — then the
// detection-latency sweep across firmware retry budgets. Survivors repair
// the barrier around the corpse and keep completing; the summaries show
// who died, who agreed, and what it cost.
func printCrash(s service.Spec) {
	if s.FaultPlan == service.PlanNone || s.FaultPlan == "" {
		s.FaultPlan = service.PlanCrash
	}
	s.Warmup, s.Iters = 2, 8 // the chaos fleet's counts
	n := s.Nodes
	victim := network.NodeID(n / 2)
	var cells []experiments.Scenario
	var c service.Spec
	for _, alg := range []string{"pe", "gb"} {
		s.Alg = alg
		var x experiments.Spec
		var err error
		if c, err = s.Canonicalize(); err == nil {
			x, err = c.Experiment()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if !service.FailStop(c.FaultPlan) {
			fmt.Fprintf(os.Stderr, "-fig crash wants -faultplan crash or partition, not %q\n", c.FaultPlan)
			os.Exit(2)
		}
		cells = append(cells, experiments.Scenario{Name: fmt.Sprintf("%s%d-%s%d", alg, n, c.FaultPlan, victim), Spec: x})
	}
	sums, err := experiments.RunScenarios(cells)
	exitOn(err)
	fmt.Printf("Crash tolerance: %d nodes, LANai 4.3, %s of node %d at t=700us\n\n", n, c.FaultPlan, victim)
	for _, sum := range sums {
		fmt.Print(sum.String())
	}
	fmt.Println()
	pts, err := experiments.DetectionLatencySweep(n, c.Dim, []int{4, 6, 8}, []float64{100, 200, 400})
	exitOn(err)
	t := stats.NewTable(
		fmt.Sprintf("Crash-detection latency vs retry budget (%d nodes, GB dim %d, node %d crashed mid-run)", n, c.Dim, victim),
		"MaxRetries", "RTO (us)", "Detect (us)", "Probes", "Declared")
	for _, p := range pts {
		t.AddRow(p.MaxRetries, p.RTOMicros, p.DetectMicros, p.Probes, p.Declared)
	}
	fmt.Print(t.String())
}

func printHeadlines(rows43, rows72 []experiments.Figure5Row) {
	paper := experiments.Paper()
	find := func(rows []experiments.Figure5Row, n int) experiments.Figure5Row {
		for _, r := range rows {
			if r.Nodes == n {
				return r
			}
		}
		return experiments.Figure5Row{}
	}
	r16 := find(rows43, 16)
	r8a := find(rows43, 8)
	r8b := find(rows72, 8)
	t := stats.NewTable("Headline comparison (paper vs simulation)", "Metric", "Paper", "Simulated")
	t.AddRow("16-node NIC-PE latency, LANai 4.3 (us)", paper.NICPE16L43, r16.NICPE)
	t.AddRow("16-node PE factor, LANai 4.3", paper.FactorPE16, r16.HostPE/r16.NICPE)
	t.AddRow("16-node NIC-GB latency, LANai 4.3 (us)", paper.NICGB16L43, r16.NICGB)
	t.AddRow("16-node GB factor, LANai 4.3", paper.FactorGB16, r16.HostGB/r16.NICGB)
	t.AddRow("8-node NIC-PE latency, LANai 7.2 (us)", paper.NICPE8L72, r8b.NICPE)
	t.AddRow("8-node host-PE latency, LANai 7.2 (us)", paper.HostPE8L72, r8b.HostPE)
	t.AddRow("8-node PE factor, LANai 7.2", paper.FactorPE8L72, r8b.HostPE/r8b.NICPE)
	t.AddRow("8-node PE factor, LANai 4.3", paper.FactorPE8L43, r8a.HostPE/r8a.NICPE)
	fmt.Print(t.String())
}

// printMetrics runs one observed NIC-PE and one NIC-GB measurement and
// dumps the cluster metrics registry alongside the phase decomposition —
// the always-on counters every experiment accumulates, surfaced.
func printMetrics(n, dim, iters int) error {
	specs := []experiments.Spec{
		{Cluster: cluster.DefaultConfig(n), Level: experiments.NICLevel, Alg: mcp.PE, Iters: iters},
		{Cluster: cluster.DefaultConfig(n), Level: experiments.NICLevel, Alg: mcp.GB, Dim: dim, Iters: iters},
	}
	outs := make([]experiments.Outcome, len(specs))
	for i, sp := range specs {
		var err error
		if outs[i], err = experiments.Run(sp, true); err != nil {
			return err
		}
	}
	for i, sp := range specs {
		if i > 0 {
			fmt.Println()
		}
		obs := outs[i]
		name := fmt.Sprintf("%s-%s", sp.Level, sp.Alg)
		if sp.Alg == mcp.GB {
			name += fmt.Sprintf(" dim %d", sp.Dim)
		}
		fmt.Printf("%s, %d nodes, %d iterations: mean %.2fus\n", name, n, iters, obs.MeanMicros)
		fmt.Print(obs.Decomp.Table())
		fmt.Println("metrics:")
		fmt.Print(obs.Metrics.Dump(true))
	}
	return nil
}
