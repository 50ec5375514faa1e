package experiments

import (
	"strings"
	"testing"

	"gmsim/internal/cluster"
	"gmsim/internal/fault"
	"gmsim/internal/mcp"
	"gmsim/internal/network"
	"gmsim/internal/sim"
)

// TestEmptyPlanMatchesFigure5Exactly: a cluster with an empty fault plan
// attached produces bit-identical latencies to one with no plan at all —
// the idle fault layer is free, so the zero-loss row of a reliability
// sweep reproduces Figure 5.
func TestEmptyPlanMatchesFigure5Exactly(t *testing.T) {
	plain := MeasureBarrier(Spec{
		Cluster: cluster.DefaultConfig(8), Level: NICLevel, Alg: mcp.PE, Iters: detIters,
	})
	withPlan := MeasureBarrier(Spec{
		Cluster: reliabilityCfg(8, false, &fault.Plan{Seed: 123}),
		Level:   NICLevel, Alg: mcp.PE, Iters: detIters,
	})
	if plain.MeanMicros != withPlan.MeanMicros || plain.Start != withPlan.Start || plain.End != withPlan.End {
		t.Fatalf("empty plan perturbed the measurement:\nplain: %+v\nplan:  %+v", plain, withPlan)
	}

	pts, err := ReliabilitySweep(8, []float64{0}, 2, detIters, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].UnrelPE != plain.MeanMicros {
		t.Fatalf("sweep zero-loss UnrelPE %.4f != Figure-5 %.4f", pts[0].UnrelPE, plain.MeanMicros)
	}
	if pts[0].RelPERetrans != 0 || pts[0].RelGBRetrans != 0 || pts[0].HostPERetrans != 0 {
		t.Fatalf("retransmissions at zero loss: %+v", pts[0])
	}
}

// TestReliabilitySweepLossCostsLatency: losing packets costs latency and
// forces retransmissions; the zero-loss reliable barrier stays cheaper
// than the lossy one.
func TestReliabilitySweepLossCostsLatency(t *testing.T) {
	pts, err := ReliabilitySweep(8, []float64{0, 2}, 2, detIters, nil)
	if err != nil {
		t.Fatal(err)
	}
	z, l := pts[0], pts[1]
	if l.RelPERetrans == 0 && l.RelGBRetrans == 0 {
		t.Fatalf("2%% loss forced no barrier retransmissions: %+v", l)
	}
	if l.RelPE <= z.RelPE {
		t.Fatalf("lossy PE %.2fµs not slower than clean %.2fµs", l.RelPE, z.RelPE)
	}
	if l.HostPERetrans == 0 {
		t.Fatalf("2%% loss forced no data retransmissions in the host baseline: %+v", l)
	}
}

// TestReliableGBSurvivesChaos is the PR's acceptance scenario: a 16-node
// GB barrier with the reliable-barrier mechanism on completes under a plan
// combining 2% loss, packet corruption, and a mid-barrier link flap.
func TestReliableGBSurvivesChaos(t *testing.T) {
	const n, warm, iters = 16, 2, 5
	spec := Spec{
		Cluster: reliabilityCfg(n, true, nil),
		Level:   NICLevel, Alg: mcp.GB, Dim: 2,
		Warmup: warm, Iters: iters,
	}
	baseline := MeasureBarrier(spec)

	// Aim the flap inside the first timed barrier.
	down := baseline.Start + (baseline.End-baseline.Start)/(2*iters)
	plan := &fault.Plan{
		Seed: 42,
		Rules: []fault.Rule{
			{Links: fault.AllLinks(), Window: fault.Always, Rate: 0.02, Action: fault.Drop},
			{Links: fault.AllLinks(), Window: fault.Always, Rate: 0.005, Action: fault.Corrupt},
			{Links: fault.AllLinks(), Window: fault.Always, Rate: 0.005, Action: fault.Truncate},
		},
		Outages: []fault.Outage{{
			Links:  fault.NodeLinks(network.NodeID(n - 1)),
			Window: fault.Window{From: down, To: down + sim.FromMicros(300)},
		}},
	}
	fspec := spec
	fspec.Cluster = reliabilityCfg(n, true, plan)
	res := MeasureBarrier(fspec) // panics on deadlock: survival is the assertion

	if want := int64(n * (warm + iters)); res.Barriers != want {
		t.Fatalf("completed %d barriers, want %d", res.Barriers, want)
	}
	if res.Retrans == 0 {
		t.Fatal("chaos plan forced no retransmissions — faults not injected?")
	}
	if res.MeanMicros <= baseline.MeanMicros {
		t.Fatalf("faulted run %.2fµs not slower than clean %.2fµs", res.MeanMicros, baseline.MeanMicros)
	}
}

// TestFlapRecovery: the flap experiment reports a positive recovery cost
// and at least one repair retransmission, deterministically.
func TestFlapRecovery(t *testing.T) {
	a, err := FlapRecovery(8, 2, sim.FromMicros(200), 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.RecoveryMicros <= 0 {
		t.Fatalf("flap cost nothing: %+v", a)
	}
	if a.Retrans == 0 {
		t.Fatalf("flap repaired without retransmissions: %+v", a)
	}
	b, err := FlapRecovery(8, 2, sim.FromMicros(200), 7)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("FlapRecovery not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestFlapRecoveryRejectsNonPositiveOutage: an outage that is not positive
// would never bring the link back — a cut, on which a reliable barrier
// without failure detection deadlocks — so it is an error before anything
// is simulated.
func TestFlapRecoveryRejectsNonPositiveOutage(t *testing.T) {
	for _, outage := range []sim.Time{0, -sim.FromMicros(5)} {
		if _, err := FlapRecovery(8, 2, outage, 7); err == nil || !strings.Contains(err.Error(), "is a cut") {
			t.Errorf("outage %v: err = %v, want an error naming the cut", outage, err)
		}
	}
}
