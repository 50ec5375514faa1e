package experiments

import (
	"fmt"
	"strings"

	"gmsim/internal/cluster"
	"gmsim/internal/fault"
	"gmsim/internal/mcp"
	"gmsim/internal/network"
	"gmsim/internal/sim"
	"gmsim/internal/topo"
)

// Chaos scenario fleet: a regression matrix of topology × barrier kind ×
// fault plan × seed. Every cell runs a fixed barrier workload against its
// fault plan and folds the observable outcome — latency, completions,
// recovery work, dead sets, survivor agreement, fault counters — into a
// deterministic text summary. The golden files under testdata/scenarios
// pin each summary bit-exactly; `make scenarios` re-runs the fleet and
// diffs. Zero-fault cells double as the cost-of-idle-machinery check: their
// latency must equal the Figure 5 measurement of the same configuration,
// bit for bit (TestZeroFaultScenariosMatchFigure5).

// Scenario is one cell of the chaos matrix: a barrier Spec — testbed and
// fault plan included — under a name.
type Scenario struct {
	// Name keys the golden file; keep it filesystem-safe.
	Name string
	Spec
}

// ScenarioSummary is the deterministic outcome of one scenario run.
type ScenarioSummary struct {
	Name  string
	Nodes int
	Alg   string

	// MeanMicros averages rank 0's timed iterations; MaxIterMicros is its
	// slowest single iteration — under a crash plan, the barrier that
	// absorbed the detection latency. DrainMicros is the simulated instant
	// the cluster went quiet: the bounded-completion witness.
	MeanMicros    float64
	MaxIterMicros float64
	DrainMicros   float64

	// Cluster-wide firmware counters.
	Barriers   int64
	Retrans    int64
	Probes     int64
	Declared   int64
	Skipped    int64
	Promotions int64
	Repairs    int64

	// Dead is rank 0's final-barrier dead set. Agree counts the finishing
	// ranks whose final dead set matches rank 0's (a cut-off node
	// legitimately disagrees: from its side of the partition, everyone else
	// is dead). Finished counts ranks that completed all iterations —
	// crashed ranks never do.
	Dead     []network.NodeID
	Agree    int
	Finished int

	// Faults is what the injector actually did.
	Faults fault.Counters
}

// String renders the summary in the canonical golden-file form.
func (s ScenarioSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s: nodes=%d alg=%s\n", s.Name, s.Nodes, s.Alg)
	fmt.Fprintf(&b, "  mean_us=%.3f max_iter_us=%.3f drain_us=%.3f\n",
		s.MeanMicros, s.MaxIterMicros, s.DrainMicros)
	fmt.Fprintf(&b, "  barriers=%d retrans=%d probes=%d declared=%d skipped=%d promotions=%d repairs=%d\n",
		s.Barriers, s.Retrans, s.Probes, s.Declared, s.Skipped, s.Promotions, s.Repairs)
	dead := "-"
	if len(s.Dead) > 0 {
		parts := make([]string, len(s.Dead))
		for i, n := range s.Dead {
			parts[i] = fmt.Sprintf("%d", n)
		}
		dead = strings.Join(parts, ",")
	}
	fmt.Fprintf(&b, "  dead=%s agree=%d/%d finished=%d/%d\n", dead, s.Agree, s.Nodes, s.Finished, s.Nodes)
	f := s.Faults
	fmt.Fprintf(&b, "  faults: lost=%d downs=%d corrupted=%d truncated=%d duplicated=%d flaps=%d cuts=%d crashes=%d switch_crashes=%d stalls=%d\n",
		f.Lost, f.LinkDowns, f.Corrupted, f.Truncated, f.Duplicated, f.Flaps, f.Cuts, f.Crashes, f.SwitchCrashes, f.Stalls)
	return b.String()
}

// RunScenario executes one cell through Run (warm-up and iteration counts
// default to 2 and 8) and names the summary. The run is bit-deterministic:
// the same Scenario always returns the same summary.
func RunScenario(s Scenario) (ScenarioSummary, error) {
	sums, err := RunScenarios([]Scenario{s})
	if err != nil {
		return ScenarioSummary{}, err
	}
	return sums[0], nil
}

// RunScenarios runs every scenario as one RunAll batch: summaries in input
// order, bit-identical to serial execution, or the first error in input
// order.
func RunScenarios(list []Scenario) ([]ScenarioSummary, error) {
	specs := make([]Spec, len(list))
	for i, s := range list {
		specs[i] = s.Spec
		if specs[i].Warmup == 0 {
			specs[i].Warmup = 2
		}
		if specs[i].Iters == 0 {
			specs[i].Iters = 8
		}
	}
	outs, err := RunAll(specs)
	if err != nil {
		return nil, err
	}
	sums := make([]ScenarioSummary, len(outs))
	for i, o := range outs {
		sums[i] = o.Summary
		sums[i].Name = list[i].Name
	}
	return sums, nil
}

// ---------------------------------------------------------------------------
// The fleet.
// ---------------------------------------------------------------------------

// FailStopTestbed makes cfg the testbed every crash and partition run
// uses: the reliable barrier with failure detection on, and firmware with
// a tight retry budget so a fail-stop is declared within a few milliseconds
// of simulated time instead of the production default's conservative
// seconds. Zero-fault behavior is unchanged — the retry knobs only matter
// once frames go unacked.
func FailStopTestbed(cfg cluster.Config) cluster.Config {
	cfg.ReliableBarrier = true
	cfg.DetectFailures = true
	cfg.Firmware = mcp.DefaultFirmwareParams()
	cfg.Firmware.RetransTimeout = sim.FromMicros(200)
	cfg.Firmware.RetransBackoffMax = sim.FromMicros(1600)
	cfg.Firmware.MaxRetries = 6
	cfg.Firmware.BarrierTimeout = sim.FromMicros(500)
	return cfg
}

// detectCfg is a single-crossbar fail-stop testbed.
func detectCfg(n int, plan *fault.Plan) cluster.Config {
	cfg := FailStopTestbed(cluster.DefaultConfig(n))
	cfg.Fault = plan
	return cfg
}

// cleanCfg is the Figure 5 testbed with an empty fault plan attached: the
// idle fault layer must cost nothing and change nothing.
func cleanCfg(n int) cluster.Config {
	cfg := cluster.DefaultConfig(n)
	cfg.Fault = &fault.Plan{}
	return cfg
}

// clos2Cfg is a two-level Clos testbed.
func clos2Cfg(nodes, radix int) cluster.Config {
	cfg := cluster.DefaultConfig(nodes)
	cfg.Topology = &topo.Spec{Kind: topo.Clos2, Radix: radix}
	cfg.Switch.Ports = radix
	return cfg
}

// crashPlan fail-stops one node at the given time.
func crashPlan(seed int64, node network.NodeID, at sim.Time) *fault.Plan {
	return &fault.Plan{Seed: seed, Crashes: []fault.Crash{{Node: node, At: at}}}
}

// cutPlan severs one node's cable: a persistent link partition. Nobody
// dies, but each side of the cut must declare the other dead to complete.
func cutPlan(seed int64, node network.NodeID, at sim.Time) *fault.Plan {
	return &fault.Plan{Seed: seed, Outages: []fault.Outage{{Links: fault.NodeLinks(node), Window: fault.Window{From: at}}}}
}

// chaosPlan layers node-scoped loss and duplication, a firmware stall, and
// one mid-run crash.
func chaosPlan(seed int64) *fault.Plan {
	return &fault.Plan{
		Seed: seed,
		Rules: []fault.Rule{
			{Links: fault.NodeLinks(6), Window: fault.Always, Rate: 0.02, Action: fault.Drop},
			{Links: fault.NodeLinks(11), Window: fault.Always, Rate: 0.02, Action: fault.Duplicate},
		},
		Stalls:  []fault.Stall{{Node: 3, At: sim.FromMicros(400), For: sim.FromMicros(50)}},
		Crashes: []fault.Crash{{Node: 9, At: sim.FromMicros(900)}},
	}
}

// ScenarioFleet returns the chaos regression matrix: topology × barrier
// kind × fault plan × seed. Crash victims are never node 0, whose vantage
// the summaries report from.
func ScenarioFleet() []Scenario {
	flap := &fault.Plan{Seed: 1, Outages: []fault.Outage{{
		Links:  fault.NodeLinks(13),
		Window: fault.Window{From: sim.FromMicros(600), To: sim.FromMicros(900)},
	}}}
	twoCrash := &fault.Plan{Seed: 1, Crashes: []fault.Crash{
		{Node: 5, At: sim.FromMicros(700)},
		{Node: 11, At: sim.FromMicros(4000)},
	}}
	twoSwitch := func(plan *fault.Plan) cluster.Config {
		cfg := detectCfg(16, plan)
		cfg.Topology = &topo.Spec{Kind: topo.TwoSwitch}
		return cfg
	}
	clos2 := func(plan *fault.Plan) cluster.Config {
		cfg := FailStopTestbed(clos2Cfg(32, 8))
		cfg.Fault = plan
		return cfg
	}
	return []Scenario{
		// Zero-fault rows: pinned bit-identical to Figure 5.
		{Name: "pe16-clean", Spec: Spec{Cluster: cleanCfg(16), Alg: mcp.PE, Warmup: 5, Iters: 20}},
		{Name: "gb16-clean", Spec: Spec{Cluster: cleanCfg(16), Alg: mcp.GB, Dim: 4, Warmup: 5, Iters: 20}},
		{Name: "pe32-clos2-clean", Spec: Spec{Cluster: clos2Cfg(32, 8), Alg: mcp.PE, Warmup: 5, Iters: 20}},

		// Single crash, both barrier kinds; for GB both an interior node
		// (children re-parent by promotion) and a leaf.
		{Name: "pe16-crash5", Spec: Spec{Cluster: detectCfg(16, crashPlan(1, 5, sim.FromMicros(700))), Alg: mcp.PE}},
		{Name: "gb16-crash-interior", Spec: Spec{Cluster: detectCfg(16, crashPlan(1, 1, sim.FromMicros(700))), Alg: mcp.GB, Dim: 4}},
		{Name: "gb16-crash-leaf", Spec: Spec{Cluster: detectCfg(16, crashPlan(1, 15, sim.FromMicros(700))), Alg: mcp.GB, Dim: 4}},

		// Two staggered crashes.
		{Name: "gb16-crash-two", Spec: Spec{Cluster: detectCfg(16, twoCrash), Alg: mcp.GB, Dim: 4}},

		// Persistent link cut: both sides of the partition complete.
		{Name: "pe16-cut3", Spec: Spec{Cluster: detectCfg(16, cutPlan(1, 3, sim.FromMicros(700))), Alg: mcp.PE}},

		// Transient flap shorter than the retry budget: recovery without a
		// single death declared.
		{Name: "gb16-flap", Spec: Spec{Cluster: detectCfg(16, flap), Alg: mcp.GB, Dim: 4}},

		// Everything at once, two seeds.
		{Name: "gb16-chaos-s1", Spec: Spec{Cluster: detectCfg(16, chaosPlan(1)), Alg: mcp.GB, Dim: 4}},
		{Name: "gb16-chaos-s2", Spec: Spec{Cluster: detectCfg(16, chaosPlan(2)), Alg: mcp.GB, Dim: 4}},

		// Multi-switch topologies: a crash behind the far switch, and one
		// on a two-level Clos.
		{Name: "gb16-twoswitch-crash12", Spec: Spec{Cluster: twoSwitch(crashPlan(1, 12, sim.FromMicros(700))), Alg: mcp.GB, Dim: 4}},
		{Name: "pe32-clos2-crash17", Spec: Spec{Cluster: clos2(crashPlan(1, 17, sim.FromMicros(600))), Alg: mcp.PE}},
	}
}

// ---------------------------------------------------------------------------
// Detection latency.
// ---------------------------------------------------------------------------

// DetectionPoint is one row of the detection-latency table: how long a
// crash went unnoticed as a function of the retry budget.
type DetectionPoint struct {
	MaxRetries int
	RTOMicros  float64
	// DetectMicros is the extra latency the crash added to the barrier that
	// absorbed it: the slowest faulted iteration minus the fault-free mean.
	DetectMicros float64
	Probes       int64
	Declared     int64
}

// DetectionLatencySweep measures crash-detection latency across retry
// budgets and base timeouts: a GB barrier on n nodes with one node crashed
// mid-run, re-measured for every (MaxRetries, RetransTimeout) combination.
func DetectionLatencySweep(n, dim int, retries []int, rtosMicros []float64) ([]DetectionPoint, error) {
	mk := func(maxRetries int, rtoMicros float64, plan *fault.Plan) cluster.Config {
		cfg := detectCfg(n, plan)
		cfg.Firmware.MaxRetries = maxRetries
		cfg.Firmware.RetransTimeout = sim.FromMicros(rtoMicros)
		cfg.Firmware.RetransBackoffMax = sim.FromMicros(8 * rtoMicros)
		return cfg
	}
	// The fault-free baseline leads the batch.
	list := []Scenario{{
		Name: "detect-baseline",
		Spec: Spec{Cluster: mk(retries[0], rtosMicros[0], nil), Alg: mcp.GB, Dim: dim},
	}}
	for _, mr := range retries {
		for _, rto := range rtosMicros {
			list = append(list, Scenario{
				Name: fmt.Sprintf("detect-r%d-t%g", mr, rto),
				Spec: Spec{
					Cluster: mk(mr, rto, crashPlan(1, network.NodeID(n/2), sim.FromMicros(700))),
					Alg:     mcp.GB, Dim: dim,
				},
			})
		}
	}
	sums, err := RunScenarios(list)
	if err != nil {
		return nil, err
	}
	baseline := sums[0]
	out := make([]DetectionPoint, 0, len(sums)-1)
	i := 1
	for _, mr := range retries {
		for _, rto := range rtosMicros {
			s := sums[i]
			i++
			out = append(out, DetectionPoint{
				MaxRetries:   mr,
				RTOMicros:    rto,
				DetectMicros: s.MaxIterMicros - baseline.MeanMicros,
				Probes:       s.Probes,
				Declared:     s.Declared,
			})
		}
	}
	return out, nil
}
