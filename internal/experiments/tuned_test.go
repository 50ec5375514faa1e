package experiments

import (
	"reflect"
	"testing"

	"gmsim/internal/cluster"
	"gmsim/internal/mcp"
	"gmsim/internal/model"
	"gmsim/internal/topo"
)

// TestTunedGBDimConformance: on every cell of the model-conformance
// matrix (n ∈ {4, 8, 16}, NIC level), the steady-state recurrence must
// reproduce the measured mean of every dimension essentially exactly and
// land on the same argmin as the exhaustive DES sweep — the property that
// lets a Tuned TopoScaleSweep replace the sweep.
func TestTunedGBDimConformance(t *testing.T) {
	const iters = obsIters
	c := model.GBCosts43()
	for _, n := range []int{4, 8, 16} {
		cfg := cluster.DefaultConfig(n)
		pts, err := GBDimSweep(cfg, NICLevel, iters, false)
		if err != nil {
			t.Fatal(err)
		}
		measDim, measLat := 1, 0.0
		for i, pt := range pts {
			if i == 0 || pt.Micros < measLat {
				measDim, measLat = pt.Dim, pt.Micros
			}
			mod := model.GBSteadyState(n, pt.Dim, 5, iters, c)
			if e := relErr(pt.Micros, mod); e > 1e-9 {
				t.Errorf("n=%d dim=%d: model %.6f µs, measured %.6f µs (err %.2e)",
					n, pt.Dim, mod, pt.Micros, e)
			}
		}
		if tuned := model.TunedGBDimOver(n, 5, iters, c, model.TunedDims(n)); tuned != measDim {
			t.Errorf("n=%d: tuned dim %d != sweep argmin %d", n, tuned, measDim)
		}
		// The production window (warmup 5, 200 iters) picks the same dim.
		if prod := TunedGBDim(cfg); prod != measDim {
			t.Errorf("n=%d: TunedGBDim = %d, sweep argmin %d", n, prod, measDim)
		}
	}
}

// TestTunedGBDimConformance72: the clock-scaled cost set stays exact on
// the LANai 7.2 cells.
func TestTunedGBDimConformance72(t *testing.T) {
	const n, iters = 8, obsIters
	cfg := cluster.LANai72Config(n)
	c := model.GBCostsAt(cfg.NIC.ClockMHz)
	pts, err := GBDimSweep(cfg, NICLevel, iters, false)
	if err != nil {
		t.Fatal(err)
	}
	measDim, measLat := 1, 0.0
	for i, pt := range pts {
		if i == 0 || pt.Micros < measLat {
			measDim, measLat = pt.Dim, pt.Micros
		}
		mod := model.GBSteadyState(n, pt.Dim, 5, iters, c)
		if e := relErr(pt.Micros, mod); e > 1e-9 {
			t.Errorf("dim=%d: model %.6f µs, measured %.6f µs", pt.Dim, mod, pt.Micros)
		}
	}
	if tuned := model.TunedGBDimOver(n, 5, iters, c, model.TunedDims(n)); tuned != measDim {
		t.Errorf("tuned dim %d != sweep argmin %d", tuned, measDim)
	}
}

// TestTunedSweepDeterminism: the tuned sweep is bit-identical serial vs 8
// workers, and the tuner itself is a pure function of (n, costs).
func TestTunedSweepDeterminism(t *testing.T) {
	run := func() []TopoScaleRow {
		rows, err := TopoScaleSweep(TopoSweep{Kinds: []topo.Kind{topo.Star, topo.Clos2, topo.Clos3}, Sizes: []int{16, 64}, Radix: 8, Iters: 10, Tuned: true})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	var serial, parallel []TopoScaleRow
	withWorkers(t, 1, func() { serial = run() })
	withWorkers(t, 8, func() { parallel = run() })
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("tuned sweep not deterministic:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	// Star and clos2 lack capacity for 64 nodes at radix 8; clos3 has it.
	if len(serial) != 4 {
		t.Fatalf("got %d rows, want 4 (star16, clos2-16, clos3-16, clos3-64)", len(serial))
	}
	for _, r := range serial {
		if r.NICGBDim < 1 || r.NICGB <= 0 {
			t.Fatalf("bad tuned row: %+v", r)
		}
	}
	for i := 0; i < 3; i++ {
		if d := TunedGBDim(cluster.DefaultConfig(8192)); d != TunedGBDim(cluster.DefaultConfig(8192)) {
			t.Fatalf("TunedGBDim not deterministic: %d", d)
		}
	}
}

// TestTopoScale8192Smoke: the headline scale extension — an 8192-node
// radix-32 fat-tree row, GB dimension tuned, all four barrier variants
// measured. Skipped in -short (the CI scale job runs it under timeout).
func TestTopoScale8192Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("8192-node fabric simulation is slow; skipped in -short")
	}
	rows, err := TopoScaleSweep(TopoSweep{Kinds: []topo.Kind{topo.Clos3}, Sizes: []int{8192}, Radix: 32, Iters: 3, Tuned: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	if r.Nodes != 8192 || r.Switches != 1280 || r.Diameter != 5 {
		t.Fatalf("fabric shape: %+v", r)
	}
	if r.NICPE <= 0 || r.NICGB <= 0 || r.HostPE <= 0 || r.HostGB <= 0 {
		t.Fatalf("non-positive latency: %+v", r)
	}
	if r.FactorPE < 1 || r.FactorGB < 1 {
		t.Fatalf("NIC barrier should beat the host baseline at 8192 nodes: %+v", r)
	}
}

// TestTuned8192Determinism extends the determinism guard to the
// 8192-node tuned sweep entry: the same spec measured serially and on 8
// workers must produce bit-identical results.
func TestTuned8192Determinism(t *testing.T) {
	if testing.Short() {
		t.Skip("8192-node fabric simulation is slow; skipped in -short")
	}
	cfg := TopoConfig(topo.Clos3, 8192, 32)
	specs := []Spec{{Cluster: cfg, Level: NICLevel, Alg: mcp.GB,
		Dim: TunedGBDim(cfg), TopoAware: true, Iters: 2}}
	var serial, parallel []Result
	withWorkers(t, 1, func() { serial = MeasureBarriers(specs) })
	withWorkers(t, 8, func() { parallel = MeasureBarriers(specs) })
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("8192-node tuned entry not deterministic:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
}

// TestTopoScale65536Tuning: the 65536-node fat-tree (radix 64, exactly
// full) builds, routes and tunes — no DES run at this size. Skipped in
// -short.
func TestTopoScale65536Tuning(t *testing.T) {
	if testing.Short() {
		t.Skip("65536-node route/tuning pass is slow; skipped in -short")
	}
	tp, err := topo.Build(topo.Spec{Kind: topo.Clos3, Nodes: 65536, Radix: 64})
	if err != nil {
		t.Fatal(err)
	}
	st := tp.ComputeStats()
	if st.Diameter != 5 || st.Nodes != 65536 {
		t.Fatalf("stats: %+v", st)
	}
	for _, pair := range [][2]int{{0, 65535}, {1023, 1024}, {0, 31}, {40000, 12345}} {
		r, err := tp.Route(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if len(r) == 0 || len(r) > st.Diameter {
			t.Fatalf("route %v: %x", pair, r)
		}
	}
	if d := model.TunedGBDimOver(65536, 5, 20, model.GBCosts43(), model.TunedDims(65536)); d < 1 {
		t.Fatalf("tuned dim %d", d)
	}
}
