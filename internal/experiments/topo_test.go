package experiments

import (
	"reflect"
	"testing"

	"gmsim/internal/cluster"
	"gmsim/internal/topo"
)

// TestTopoSingleMatchesFigure5: a 16-node single-crossbar TopoScaleSweep row
// must be bit-identical to the legacy Figure 5 measurement — the declarative
// topology path and the topology-aware tree mapping are both no-ops on one
// crossbar, so the paper's numbers must not move.
func TestTopoSingleMatchesFigure5(t *testing.T) {
	const iters = 20
	figs, err := Figure5Latencies(cluster.DefaultConfig, []int{16}, iters)
	if err != nil {
		t.Fatal(err)
	}
	fig := figs[0]
	rows, err := TopoScaleSweep(TopoSweep{Kinds: []topo.Kind{topo.Single}, Sizes: []int{16}, Radix: 16, Iters: iters})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	if r.NICPE != fig.NICPE || r.HostPE != fig.HostPE ||
		r.NICGB != fig.NICGB || r.HostGB != fig.HostGB ||
		r.NICGBDim != fig.NICGBDim || r.HostGBDim != fig.HostGBDim {
		t.Fatalf("topo row diverges from Figure 5:\ntopo: %+v\nfig5: %+v", r, fig)
	}
	if r.Switches != 1 || r.Diameter != 1 {
		t.Fatalf("single crossbar stats: %+v", r)
	}
}

// TestTopoScaleRowsSane: small multi-switch sweeps produce positive
// latencies, host slower than NIC, and the expected fabric shapes.
func TestTopoScaleRowsSane(t *testing.T) {
	rows, err := TopoScaleSweep(TopoSweep{Kinds: []topo.Kind{topo.Star, topo.Clos2}, Sizes: []int{8, 16}, Radix: 6, Iters: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.NICPE <= 0 || r.NICGB <= 0 || r.HostPE <= 0 || r.HostGB <= 0 {
			t.Fatalf("non-positive latency: %+v", r)
		}
		if r.FactorPE < 1 || r.FactorGB < 1 {
			t.Fatalf("host faster than NIC: %+v", r)
		}
		if r.Diameter != 3 {
			t.Fatalf("%v/%d diameter = %d, want 3", r.Kind, r.Nodes, r.Diameter)
		}
	}
}

// TestTopoScale1024Smoke drives the headline scale experiment end to end: a
// 1024-node three-level Clos of radix-16 crossbars, NIC-based and host-based
// barriers at the tuned GB dimension (four simulations), serial and parallel
// runs bit-identical. Skipped in -short.
func TestTopoScale1024Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node fabric simulation is slow; skipped in -short")
	}
	run := func() []TopoScaleRow {
		rows, err := TopoScaleSweep(TopoSweep{Kinds: []topo.Kind{topo.Clos3}, Sizes: []int{1024}, Radix: 16, Iters: 3, Tuned: true})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	var serial, parallel []TopoScaleRow
	withWorkers(t, 1, func() { serial = run() })
	withWorkers(t, 8, func() { parallel = run() })
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("1024-node sweep not deterministic:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if len(serial) != 1 {
		t.Fatalf("got %d rows", len(serial))
	}
	r := serial[0]
	if r.Nodes != 1024 || r.Switches != 320 || r.Diameter != 5 {
		t.Fatalf("fabric shape: %+v", r)
	}
	if r.NICPE <= 0 || r.NICGB <= 0 {
		t.Fatalf("non-positive NIC latency: %+v", r)
	}
	if r.FactorPE < 1 || r.FactorGB < 1 {
		t.Fatalf("NIC barrier should beat the host baseline at 1024 nodes: %+v", r)
	}
}

// TestContentionGrowsWithCrossTraffic: streaming pairs that share the
// leaf-root trunks slow down as more pairs are added, while same-crossbar
// pairs are unaffected by their own count.
func TestContentionGrowsWithCrossTraffic(t *testing.T) {
	rows, err := CrossSwitchContention(6, []int{1, 4}, 2048, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Slowdown < 0.99 || rows[0].Slowdown > 1.01 {
		t.Fatalf("single cross pair should match intra baseline: %+v", rows[0])
	}
	if rows[1].Slowdown < 1.5 {
		t.Fatalf("4 cross pairs on shared trunks should contend: %+v", rows[1])
	}
	if rows[1].IntraMicros > rows[0].IntraMicros*1.01 {
		t.Fatalf("intra-switch pairs should not contend: %+v vs %+v", rows[1], rows[0])
	}
}
