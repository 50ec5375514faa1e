package experiments

import (
	"math"
	"testing"

	"gmsim/internal/cluster"
	"gmsim/internal/mcp"
)

const iters = 60 // enough for a converged steady-state mean (deterministic sim)

func within(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	if want == 0 {
		t.Fatalf("%s: zero target", name)
	}
	rel := math.Abs(got-want) / want
	if rel > relTol {
		t.Errorf("%s = %.2f, paper %.2f (%.1f%% off, tolerance %.0f%%)",
			name, got, want, rel*100, relTol*100)
	}
}

// TestCalibrationHeadlines locks the simulation to the paper's published
// numbers (Section 6 / abstract). PE numbers must match tightly; the GB
// latency matches, while the GB *factor* is a documented deviation (see
// EXPERIMENTS.md) because the host-based GB baseline is structurally pinned
// by the host-PE calibration in our cost model.
func TestCalibrationHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep is slow; run without -short")
	}
	paper := Paper()
	rows43, err := Figure5a(iters)
	if err != nil {
		t.Fatal(err)
	}
	rows72, err := Figure5c(iters)
	if err != nil {
		t.Fatal(err)
	}
	find := func(rows []Figure5Row, n int) Figure5Row {
		for _, r := range rows {
			if r.Nodes == n {
				return r
			}
		}
		t.Fatalf("no row for %d nodes", n)
		return Figure5Row{}
	}
	r16 := find(rows43, 16)
	r8a := find(rows43, 8)
	r8b := find(rows72, 8)

	within(t, "NIC-PE 16 (4.3)", r16.NICPE, paper.NICPE16L43, 0.05)
	within(t, "PE factor 16 (4.3)", r16.HostPE/r16.NICPE, paper.FactorPE16, 0.05)
	within(t, "NIC-GB 16 (4.3)", r16.NICGB, paper.NICGB16L43, 0.08)
	within(t, "NIC-PE 8 (7.2)", r8b.NICPE, paper.NICPE8L72, 0.05)
	within(t, "host-PE 8 (7.2)", r8b.HostPE, paper.HostPE8L72, 0.05)
	within(t, "PE factor 8 (7.2)", r8b.HostPE/r8b.NICPE, paper.FactorPE8L72, 0.05)
	within(t, "PE factor 8 (4.3)", r8a.HostPE/r8a.NICPE, paper.FactorPE8L43, 0.05)
}

// TestShapeCriteria asserts the qualitative relations the paper reports
// (DESIGN.md "Shape criteria").
func TestShapeCriteria(t *testing.T) {
	rows, err := Figure5a(iters)
	if err != nil {
		t.Fatal(err)
	}
	var prevPE float64
	for _, r := range rows {
		// (1) NIC-PE is the fastest variant at every size.
		if r.NICPE >= r.NICGB || r.NICPE >= r.HostPE || r.NICPE >= r.HostGB {
			t.Errorf("n=%d: NIC-PE (%.2f) is not fastest (%.2f/%.2f/%.2f)",
				r.Nodes, r.NICPE, r.NICGB, r.HostPE, r.HostGB)
		}
		// (2) NIC-GB beats both host variants for N >= 4.
		if r.Nodes >= 4 && (r.NICGB >= r.HostPE || r.NICGB >= r.HostGB) {
			t.Errorf("n=%d: NIC-GB (%.2f) does not beat host variants (%.2f/%.2f)",
				r.Nodes, r.NICGB, r.HostPE, r.HostGB)
		}
		// (3) host-PE beats host-GB.
		if r.HostPE >= r.HostGB {
			t.Errorf("n=%d: host-PE (%.2f) not better than host-GB (%.2f)",
				r.Nodes, r.HostPE, r.HostGB)
		}
		// (4) PE factor grows with N.
		f := r.HostPE / r.NICPE
		if f < prevPE {
			t.Errorf("n=%d: PE factor %.2f decreased from %.2f", r.Nodes, f, prevPE)
		}
		prevPE = f
	}
}

func TestFactorGrowsWithNICClock(t *testing.T) {
	cfg43 := cluster.DefaultConfig(8)
	cfg72 := cluster.LANai72Config(8)
	f := func(cfg cluster.Config) float64 {
		nic := MeasureBarrier(Spec{Cluster: cfg, Level: NICLevel, Alg: mcp.PE, Iters: iters}).MeanMicros
		hst := MeasureBarrier(Spec{Cluster: cfg, Level: HostLevel, Alg: mcp.PE, Iters: iters}).MeanMicros
		return hst / nic
	}
	f43, f72 := f(cfg43), f(cfg72)
	if f72 <= f43 {
		t.Fatalf("factor should grow with NIC clock: 4.3=%.2f, 7.2=%.2f", f43, f72)
	}
}

func TestLayerOverheadIncreasesFactor(t *testing.T) {
	pts, err := LayerOverheadSweep(8, []float64{0, 10, 30}, iters)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	if !(pts[0].Factor < pts[1].Factor && pts[1].Factor < pts[2].Factor) {
		t.Fatalf("factor not increasing with layer overhead: %.2f %.2f %.2f",
			pts[0].Factor, pts[1].Factor, pts[2].Factor)
	}
}

func TestGBDimSweepHasInteriorOptimum(t *testing.T) {
	pts, err := GBDimSweep(cluster.DefaultConfig(16), NICLevel, iters, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 15 {
		t.Fatalf("sweep points = %d, want 15", len(pts))
	}
	best, worst := pts[0].Micros, pts[0].Micros
	bestDim := pts[0].Dim
	for _, p := range pts {
		if p.Micros < best {
			best, bestDim = p.Micros, p.Dim
		}
		if p.Micros > worst {
			worst = p.Micros
		}
	}
	if bestDim == 1 || bestDim == 15 {
		t.Errorf("optimal dimension %d is at the boundary", bestDim)
	}
	if worst < best*1.2 {
		t.Errorf("dimension has too little effect: best %.2f worst %.2f", best, worst)
	}
}

func TestMeasureBarrierCountsCompletions(t *testing.T) {
	spec := Spec{Cluster: cluster.DefaultConfig(4), Level: NICLevel, Alg: mcp.PE, Warmup: 2, Iters: 10}
	r := MeasureBarrier(spec)
	want := int64(4 * (2 + 10))
	if r.Barriers != want {
		t.Fatalf("completions = %d, want %d", r.Barriers, want)
	}
	if r.MeanMicros <= 0 {
		t.Fatal("non-positive latency")
	}
}

func TestHostLevelHasNoNICCompletions(t *testing.T) {
	spec := Spec{Cluster: cluster.DefaultConfig(4), Level: HostLevel, Alg: mcp.PE, Warmup: 1, Iters: 3}
	r := MeasureBarrier(spec)
	if r.Barriers != 0 {
		t.Fatalf("host-level run should have no NIC barrier completions, got %d", r.Barriers)
	}
}

func TestPingPongLatencyRange(t *testing.T) {
	// Section 1: host-based one-way latency "may be as high as 30 µs".
	// Our calibration lands in the tens of microseconds.
	lat := pingPong(t, cluster.DefaultConfig(2))
	if lat < 10 || lat > 60 {
		t.Fatalf("one-way latency %.2f us out of the paper-era range", lat)
	}
	// Faster NIC lowers it.
	lat72 := pingPong(t, cluster.LANai72Config(2))
	if lat72 >= lat {
		t.Fatalf("LANai 7.2 one-way (%.2f) not faster than 4.3 (%.2f)", lat72, lat)
	}
	// Pinned bit-exactly: the values of the dedicated loop the ping-pong
	// ran on before it became an Op of Run.
	if lat != 45.62 || lat72 != 30.256999999999998 {
		t.Errorf("one-way latency %v (LANai 4.3) / %v (LANai 7.2), pinned 45.62 / 30.256999999999998", lat, lat72)
	}
}

// pingPong is E6's one-way latency of 8-byte messages over 50 round trips.
func pingPong(t *testing.T, cfg cluster.Config) float64 {
	t.Helper()
	out, err := Run(Spec{Cluster: cfg, Op: PingPong, Bytes: 8, Iters: 50}, false)
	if err != nil {
		t.Fatal(err)
	}
	return out.MeanMicros
}

func TestOptimalGBDimMatchesSweepMin(t *testing.T) {
	cfg := cluster.DefaultConfig(8)
	dim, lat, err := OptimalDim(Spec{Cluster: cfg, Level: NICLevel, Alg: mcp.GB, Iters: iters})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := GBDimSweep(cfg, NICLevel, iters, false)
	if err != nil {
		t.Fatal(err)
	}
	best := pts[0]
	for _, p := range pts {
		if p.Micros < best.Micros {
			best = p
		}
	}
	if dim != best.Dim || lat != best.Micros {
		t.Fatalf("OptimalDim(GB) = (%d, %.2f), sweep min = (%d, %.2f)",
			dim, lat, best.Dim, best.Micros)
	}
}

func TestSpecDescribe(t *testing.T) {
	// label is what a ScenarioSummary reports as Alg.
	for _, c := range []struct {
		s    Spec
		want string
	}{
		{Spec{Alg: mcp.GB, Dim: 3}, "GB(dim=3)"},
		{Spec{Alg: mcp.PE}, "PE"},
		{Spec{Op: AllReduce, Dim: 2}, "allreduce(dim=2)"},
		{Spec{Op: PingPong}, "pingpong"},
		{Spec{Op: MPIBarrier}, "mpi-barrier"},
		{Spec{Op: BSP, Alg: mcp.GB, Dim: 2}, "bsp"},
		{Spec{Op: Streams}, "streams"},
	} {
		if got := c.s.label(); got != c.want {
			t.Fatalf("label = %q, want %q", got, c.want)
		}
	}
	if NICLevel.String() != "NIC" || HostLevel.String() != "host" {
		t.Fatal("level strings wrong")
	}
}

func TestFactorsDerivation(t *testing.T) {
	rows := []Figure5Row{{Nodes: 8, NICPE: 50, NICGB: 100, HostPE: 100, HostGB: 150}}
	f := Factors(rows)
	if len(f) != 1 || f[0].PE != 2.0 || f[0].GB != 1.5 {
		t.Fatalf("factors = %+v", f)
	}
}

func TestScaleFactorMonotone(t *testing.T) {
	rows, err := ScaleSweep([]int{8, 16, 32, 64}, 40)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, r := range rows {
		if r.Factor <= prev {
			t.Fatalf("factor not increasing with size: %+v", rows)
		}
		prev = r.Factor
	}
}

func TestMPIFactorExceedsRaw(t *testing.T) {
	rows, err := MPIBarrierComparison([]int{8}, 40)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Factor <= r.RawFactor {
		t.Fatalf("MPI factor %.2f should exceed raw factor %.2f (Equation 3)",
			r.Factor, r.RawFactor)
	}
}

func TestCollectiveFactorsSane(t *testing.T) {
	rows, err := CollectiveComparison(cluster.DefaultConfig, []int{8}, 4, 30)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.FactorAllRed <= 1.0 {
		t.Fatalf("NIC allreduce should beat host: %+v", r)
	}
	if r.NICBcast <= 0 || r.HostReduce <= 0 {
		t.Fatalf("non-positive latencies: %+v", r)
	}
}

func TestGranularityNICSupportsFinerGrain(t *testing.T) {
	pts, err := GranularitySweep(8, []float64{20, 100, 400}, 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.NICEff <= p.HostEff {
			t.Fatalf("NIC efficiency (%.3f) not above host (%.3f) at grain %.0f",
				p.NICEff, p.HostEff, p.GrainMicros)
		}
	}
	// Efficiency grows with grain for both.
	for i := 1; i < len(pts); i++ {
		if pts[i].NICEff <= pts[i-1].NICEff || pts[i].HostEff <= pts[i-1].HostEff {
			t.Fatalf("efficiency not monotone in grain: %+v", pts)
		}
	}
	nicBE := BreakEvenGrain(pts, true, 0.5)
	hostBE := BreakEvenGrain(pts, false, 0.5)
	if nicBE < 0 || hostBE < 0 || nicBE > hostBE {
		t.Fatalf("break-even grains: NIC %.0f, host %.0f (NIC should support finer grain)",
			nicBE, hostBE)
	}
}

func TestGranularityImbalanceHurts(t *testing.T) {
	var pts [2][]GranPoint
	for i, imbalance := range []float64{0, 0.5} {
		var err error
		if pts[i], err = GranularitySweep(8, []float64{100}, imbalance, 30); err != nil {
			t.Fatal(err)
		}
	}
	balanced, skewed := pts[0][0], pts[1][0]
	if skewed.NICIter <= balanced.NICIter {
		t.Fatalf("imbalance should lengthen iterations: %.2f vs %.2f",
			skewed.NICIter, balanced.NICIter)
	}
}
