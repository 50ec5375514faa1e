package experiments

import (
	"fmt"

	"gmsim/internal/cluster"
	"gmsim/internal/fault"
	"gmsim/internal/mcp"
	"gmsim/internal/network"
	"gmsim/internal/sim"
)

// Reliability experiments: what the paper leaves unmeasured. Section 4.4
// proposes a separate acknowledgment mechanism for barrier packets but
// benchmarks with unreliable ones; these sweeps run the reliable PE and GB
// barriers against a fault plan — packet loss, corruption, link flaps —
// and report the latency and the recovery work (retransmissions) next to
// the host-based baseline, whose barrier messages ride GM's always-
// reliable data channel.

// ReliabilityPoint is one loss-rate row of the sweep.
type ReliabilityPoint struct {
	// LossPct is the per-hop packet loss probability in percent, applied
	// to every link in the fabric.
	LossPct float64
	// RelPE and RelGB are the NIC-based barrier latencies (µs) with the
	// reliable-barrier mechanism on; HostPE is the host-based PE baseline
	// over the reliable data channel.
	RelPE, RelGB, HostPE float64
	// *Retrans count frames re-sent across the cluster during the whole
	// run (warmup included) for the corresponding measurement.
	RelPERetrans, RelGBRetrans, HostPERetrans int64
	// UnrelPE is measured only on the zero-loss row of a sweep whose base
	// plan is empty: the plain unreliable NIC PE barrier of Figure 5, run
	// with the empty fault plan attached. It must equal the Figure-5
	// number exactly — the check that an idle fault layer costs nothing.
	// (An unreliable barrier cannot survive a lossy plan: a lost barrier
	// packet is a hang, which is the point of Section 4.4.)
	UnrelPE float64
}

// reliabilityCfg builds the testbed for one sweep point.
func reliabilityCfg(n int, reliable bool, plan *fault.Plan) cluster.Config {
	cfg := cluster.DefaultConfig(n)
	cfg.ReliableBarrier = reliable
	cfg.Fault = plan
	return cfg
}

// pointPlan extends the base plan with a whole-fabric drop rule for one
// sweep point, ahead of the base plan's rules: a hop decides whether it
// is lost before anything else is drawn for it. The base plan is cloned,
// never mutated, so one base may serve every point of a sweep running
// concurrently.
func pointPlan(base *fault.Plan, lossPct float64) *fault.Plan {
	pl := base.Clone()
	if lossPct > 0 {
		drop := fault.Rule{Links: fault.AllLinks(), Window: fault.Always, Rate: lossPct / 100, Action: fault.Drop}
		pl.Rules = append([]fault.Rule{drop}, pl.Rules...)
	}
	return pl
}

// ReliabilitySweep measures barrier latency and retransmission counts as a
// function of packet loss rate, for the reliable NIC PE and GB barriers
// and the host-based PE baseline. gbDim is the GB tree dimension; base is
// an optional fault plan every point inherits (nil for pure loss). All
// measurements fan out over the runner pool.
func ReliabilitySweep(n int, lossPcts []float64, gbDim, iters int, base *fault.Plan) ([]ReliabilityPoint, error) {
	if gbDim <= 0 {
		gbDim = 2
	}
	var specs []Spec
	offsets := make([]int, len(lossPcts))
	for i, pct := range lossPcts {
		offsets[i] = len(specs)
		pl := pointPlan(base, pct)
		rel := reliabilityCfg(n, true, pl)
		specs = append(specs,
			Spec{Cluster: rel, Level: NICLevel, Alg: mcp.PE, Iters: iters},
			Spec{Cluster: rel, Level: NICLevel, Alg: mcp.GB, Dim: gbDim, Iters: iters},
			Spec{Cluster: rel, Level: HostLevel, Alg: mcp.PE, Iters: iters})
		if pct == 0 && base.Empty() {
			specs = append(specs,
				Spec{Cluster: reliabilityCfg(n, false, pl), Level: NICLevel, Alg: mcp.PE, Iters: iters})
		}
	}
	results, err := RunAll(specs)
	if err != nil {
		return nil, err
	}
	out := make([]ReliabilityPoint, 0, len(lossPcts))
	for i, pct := range lossPcts {
		o := offsets[i]
		pt := ReliabilityPoint{
			LossPct:       pct,
			RelPE:         results[o].MeanMicros,
			RelPERetrans:  results[o].Retrans,
			RelGB:         results[o+1].MeanMicros,
			RelGBRetrans:  results[o+1].Retrans,
			HostPE:        results[o+2].MeanMicros,
			HostPERetrans: results[o+2].Retrans,
		}
		if pct == 0 && base.Empty() {
			pt.UnrelPE = results[o+3].MeanMicros
		}
		out = append(out, pt)
	}
	return out, nil
}

// FlapResult reports the FlapRecovery experiment: how much a mid-barrier
// link outage costs the reliable GB barrier.
type FlapResult struct {
	Nodes int
	// OutageMicros is the injected link-down duration.
	OutageMicros float64
	// BaselineMicros is the fault-free latency of the measured barriers;
	// FaultedMicros the latency with the flap injected. Both average the
	// two timed iterations (the second barrier cannot start at any node
	// until the first has completed everywhere, so delayed completions at
	// the flapped node are visible at rank 0).
	BaselineMicros float64
	FaultedMicros  float64
	// RecoveryMicros is the extra time the flap cost: the retransmission
	// timeout the firmware waited out plus the resend itself.
	RecoveryMicros float64
	// Retrans counts the frames re-sent to repair the outage.
	Retrans int64
}

// FlapRecovery measures recovery latency after a mid-barrier link flap: a
// reliable GB barrier on n nodes, with the last node's cable taken down in
// the middle of the first timed barrier and brought back after outage.
// The flap window is aimed using a fault-free baseline run of the same
// deterministic simulation, so the outage reliably intersects the barrier.
// An outage that is not positive is an error: a link that never comes
// back is a cut, which a reliable barrier without failure detection
// cannot survive.
func FlapRecovery(n, gbDim int, outage sim.Time, seed int64) (FlapResult, error) {
	if outage <= 0 {
		return FlapResult{}, fmt.Errorf("experiments: flap outage %v is not positive: a link that never comes back is a cut, which a reliable barrier without failure detection cannot survive", outage)
	}
	if gbDim <= 0 {
		gbDim = 2
	}
	spec := Spec{
		Cluster: reliabilityCfg(n, true, nil),
		Level:   NICLevel,
		Alg:     mcp.GB,
		Dim:     gbDim,
		Warmup:  5,
		Iters:   2,
	}
	baseline, err := Run(spec, false)
	if err != nil {
		return FlapResult{}, err
	}

	// Aim the outage at the middle of the first timed barrier.
	down := baseline.Start + (baseline.End-baseline.Start)/4
	plan := &fault.Plan{
		Seed: seed,
		Outages: []fault.Outage{{
			Links:  fault.NodeLinks(network.NodeID(n - 1)),
			Window: fault.Window{From: down, To: down + outage},
		}},
	}
	fspec := spec
	fspec.Cluster = reliabilityCfg(n, true, plan)
	faulted, err := Run(fspec, false)
	if err != nil {
		return FlapResult{}, err
	}
	return FlapResult{
		Nodes:          n,
		OutageMicros:   outage.Micros(),
		BaselineMicros: baseline.MeanMicros,
		FaultedMicros:  faulted.MeanMicros,
		RecoveryMicros: faulted.MeanMicros - baseline.MeanMicros,
		Retrans:        faulted.Retrans - baseline.Retrans,
	}, nil
}
