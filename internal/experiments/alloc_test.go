package experiments

import (
	"runtime"
	"testing"

	"gmsim/internal/cluster"
	"gmsim/internal/mcp"
	"gmsim/internal/topo"
)

// mallocsFor runs one measurement and returns how many heap objects and bytes
// it allocated. The collector cannot un-count a malloc, so the figures are
// exact whatever GC does meanwhile.
func mallocsFor(spec Spec) (objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	MeasureBarrier(spec)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestConstructionCostPerRank bounds what one rank of the benchmark's
// 256-node cell costs to set up: its NIC, host and process, its routes, and
// the firmware state of every peer it talks to. The run is one timed barrier
// (Warmup left 0: Run's five warm-up barriers), and steady-state barriers
// allocate nothing (TestSteadyStateAllocsPerBarrier), so nearly all of it is
// construction and the first barrier's connections: eight a rank, one per
// exchange partner. It read 122.0 objects and 18.24 KB a rank while each
// connection took the 1024-byte size class and a timer closure of its own; at
// 384 bytes and no closure it read 113.0 and 12.98; with a cluster's firmware
// one block — per-cluster pools and callbacks, connections in chunks — it
// reads 36.1 and 7.96. The limits are those figures plus 3 %.
func TestConstructionCostPerRank(t *testing.T) {
	const n = 256
	spec := Spec{Cluster: TopoConfig(topo.Clos3, n, 16), Level: NICLevel, Alg: mcp.PE, Iters: 1}
	mallocsFor(spec) // first run pays lazy package-level initialization
	objects, bytes := mallocsFor(spec)
	perObj, perKB := float64(objects)/n, float64(bytes)/n/1024
	t.Logf("%.1f objects and %.2f KB a rank", perObj, perKB)
	const maxObj, maxKB = 36.1 * 1.03, 7.96 * 1.03
	if perObj > maxObj || perKB > maxKB {
		t.Errorf("%.1f objects and %.2f KB a rank, want <= %.1f and %.2f", perObj, perKB, maxObj, maxKB)
	}
}

// TestSteadyStateAllocsPerBarrier guards the barrier hot path against
// allocation creep. The same 16-node cell is measured at two iteration
// counts; cluster construction, warm-up and pool growth cancel in the
// difference, leaving the steady-state slope in heap objects per rank per
// barrier. It read 5 / 3.4 / 12 (NIC PE: four barrier frames and the token;
// host PE: data frame, ack frame and send token per message) until frames
// were leased and tokens kept by value; the slope is now zero on every row.
//
// The ownership rule that makes it so: a *mcp.Frame on the wire has exactly
// one owner. A sender keeps what it may have to send again by value
// (sentItem, Connection.barrierSent) and copies it into a freshly leased
// wire frame per (re)transmission; the receiving MCP returns the frame to
// its free list after handleFrame, and only when network.Iface.Recycle took
// the carrier packet — an observer or a fault hook (the one source of
// duplicate delivery) closes that gate for packet and frame alike. Send
// tokens travel by value, and a Comm refills one barrier token.
//
// Limits are one object per rank-barrier: a stray runtime allocation
// between the two readings moves the slope by a hundredth, a real one by a
// whole number.
func TestSteadyStateAllocsPerBarrier(t *testing.T) {
	const n, lo, hi = 16, 100, 300
	for _, tc := range []struct {
		name  string
		level Level
		alg   mcp.BarrierAlg
		dim   int
		max   float64
	}{
		{"nic-pe", NICLevel, mcp.PE, 0, 1},
		{"nic-gb2", NICLevel, mcp.GB, 2, 1},
		{"host-pe", HostLevel, mcp.PE, 0, 1},
		{"host-gb2", HostLevel, mcp.GB, 2, 1},
	} {
		spec := Spec{Cluster: cluster.DefaultConfig(n), Level: tc.level, Alg: tc.alg, Dim: tc.dim, Warmup: 5}
		spec.Iters = lo
		mallocsFor(spec) // first run pays lazy package-level initialization
		a, _ := mallocsFor(spec)
		spec.Iters = hi
		b, _ := mallocsFor(spec)
		slope := (float64(b) - float64(a)) / float64((hi-lo)*n)
		t.Logf("%s: %.2f allocations per rank-barrier (limit %.0f)", tc.name, slope, tc.max)
		if slope > tc.max {
			t.Errorf("%s: %.2f allocations per rank-barrier, want <= %.0f", tc.name, slope, tc.max)
		}
	}
}

// TestMeasurementObjectsPerNode bounds the heap objects of a whole NIC-level
// PE measurement — cluster, processes, warm-up and DefaultIters timed
// barriers — on a 64-node clos3 fat-tree (radix 16), per node, so that
// construction creeping back per card fails here and not only in the
// benchmark's allocs_per_op. Barriers allocate nothing once warm
// (TestSteadyStateAllocsPerBarrier), so the figure is set-up: it read
// 64.2 objects a node while each card's firmware was about 28 objects of
// its own (eleven callbacks, pools, a heap Connection per peer) and each
// port open built a hook, 38.0 once a cluster's firmware was one block
// with per-cluster pools and callbacks. The limit is the reading plus 3 %.
func TestMeasurementObjectsPerNode(t *testing.T) {
	const n = 64
	spec := Spec{Cluster: TopoConfig(topo.Clos3, n, 16), Level: NICLevel, Alg: mcp.PE, Iters: DefaultIters}
	mallocsFor(spec) // first run pays lazy package-level initialization
	objects, _ := mallocsFor(spec)
	perNode := float64(objects) / n
	t.Logf("%.1f objects a node", perNode)
	const limit = 38.0 * 1.03
	if perNode > limit {
		t.Errorf("%.1f objects a node, want <= %.1f", perNode, limit)
	}
}
