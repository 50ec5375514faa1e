package cluster

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gmsim/internal/core"
	"gmsim/internal/fault"
	"gmsim/internal/gm"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/network"
	"gmsim/internal/phase"
	"gmsim/internal/sim"
	"gmsim/internal/topo"
)

// barrierTimes runs iters barriers on every rank of a built cluster and
// returns each rank's completion timestamps plus the cluster's metric dump
// — the observable surface the determinism guard compares across engines.
// barrierDim returns a valid tree dimension for the algorithm: PE ignores
// it; GB wants a tree arity in [1, n-1].
func barrierDim(alg mcp.BarrierAlg) int {
	if alg == mcp.GB {
		return 4
	}
	return 0
}

func barrierTimes(t *testing.T, cfg Config, workers, iters int, alg mcp.BarrierAlg) ([][]sim.Time, map[string]int64) {
	t.Helper()
	cl := New(cfg)
	n := cfg.Nodes
	times := make([][]sim.Time, n)
	g := core.UniformGroup(n, 2)
	cl.SpawnAll(func(p *host.Process) {
		rank := p.Rank()
		port, err := gm.Open(p, cl.MCP(rank), 2)
		if err != nil {
			t.Errorf("rank %d: %v", rank, err)
			return
		}
		comm, err := core.NewComm(p, port, 4*n+16)
		if err != nil {
			t.Errorf("rank %d: %v", rank, err)
			return
		}
		for i := 0; i < iters; i++ {
			if err := comm.Barrier(p, alg, g, rank, barrierDim(alg)); err != nil {
				t.Errorf("rank %d iter %d: %v", rank, i, err)
				return
			}
			times[rank] = append(times[rank], p.Now())
		}
	})
	cl.RunWorkers(workers)
	return times, metricsMap(cl)
}

// metricsMap flattens the cluster metric registry for DeepEqual.
func metricsMap(cl *Cluster) map[string]int64 {
	reg := cl.Metrics()
	out := make(map[string]int64)
	for _, name := range reg.Names() {
		out[name] = reg.Get(name)
	}
	return out
}

func clos2Config(nodes, radix, partitions int) Config {
	cfg := DefaultConfig(nodes)
	cfg.Topology = &topo.Spec{Kind: topo.Clos2, Radix: radix}
	cfg.Switch.Ports = radix
	cfg.Partitions = partitions
	cfg.ReliableBarrier = true
	return cfg
}

// TestPartitionedBarrierMatchesSerial pins the engine's core contract: a
// partitioned run — on one worker or many — produces bit-identical
// observable results (per-rank barrier completion times and every cluster
// metric) to the classic serial engine.
func TestPartitionedBarrierMatchesSerial(t *testing.T) {
	const nodes, radix, iters = 32, 8, 5
	for _, alg := range []mcp.BarrierAlg{mcp.PE, mcp.GB} {
		alg := alg
		t.Run(fmt.Sprintf("alg=%v", alg), func(t *testing.T) {
			serialT, serialM := barrierTimes(t, clos2Config(nodes, radix, 0), 0, iters, alg)
			for _, k := range []int{2, 4} {
				for _, workers := range []int{1, 4} {
					partT, partM := barrierTimes(t, clos2Config(nodes, radix, k), workers, iters, alg)
					tag := fmt.Sprintf("partitions=%d workers=%d", k, workers)
					if !reflect.DeepEqual(serialT, partT) {
						t.Fatalf("%s: barrier completion times diverge from serial\nserial: %v\npart:   %v",
							tag, serialT[0], partT[0])
					}
					if !reflect.DeepEqual(serialM, partM) {
						for k, v := range serialM {
							if partM[k] != v {
								t.Errorf("%s: metric %s = %d, serial %d", tag, k, partM[k], v)
							}
						}
						t.Fatalf("%s: metrics diverge from serial", tag)
					}
				}
			}
		})
	}
}

// TestPartitionedChaosMatchesSerial extends the determinism guard to
// faulted runs: a node-scoped chaos plan — stochastic loss and duplication,
// a link flap, a permanent cut, and a mid-run node crash, with failure
// detection on — must produce bit-identical per-rank completion times and
// cluster metrics on the serial engine and on the partitioned engine at
// every worker count. Fault events are scheduled on the loop owning each
// link, and detection timers live on the NIC's own loop, so engine choice
// cannot reorder them.
func TestPartitionedChaosMatchesSerial(t *testing.T) {
	plan := &fault.Plan{
		Seed: 7,
		Loss: []fault.LossRule{
			{Links: fault.NodeLinks(6), Window: fault.Always, Rate: 0.02},
		},
		Duplicate: []fault.DupRule{
			{Links: fault.NodeLinks(11), Window: fault.Always, Rate: 0.02},
		},
		Flaps: []fault.Flap{{
			Links:  fault.NodeLinks(13),
			DownAt: sim.FromMicros(400),
			UpAt:   sim.FromMicros(650),
		}},
		Cuts:    []fault.Cut{{Links: fault.NodeLinks(3), At: sim.FromMicros(900)}},
		Crashes: []fault.Crash{{Node: 17, At: sim.FromMicros(700)}},
	}
	mk := func(partitions int) Config {
		cfg := clos2Config(32, 8, partitions)
		cfg.DetectFailures = true
		cfg.Firmware.RetransTimeout = sim.FromMicros(200)
		cfg.Firmware.RetransBackoffMax = sim.FromMicros(1600)
		cfg.Firmware.MaxRetries = 6
		cfg.Firmware.BarrierTimeout = sim.FromMicros(500)
		cfg.Fault = plan
		return cfg
	}
	const iters = 8
	for _, alg := range []mcp.BarrierAlg{mcp.PE, mcp.GB} {
		serialT, serialM := barrierTimes(t, mk(1), 0, iters, alg)
		for _, workers := range []int{1, 2} {
			partT, partM := barrierTimes(t, mk(2), workers, iters, alg)
			tag := fmt.Sprintf("%v/workers=%d", alg, workers)
			if !reflect.DeepEqual(serialT, partT) {
				t.Fatalf("%s: chaos-plan completion times diverge from serial", tag)
			}
			if !reflect.DeepEqual(serialM, partM) {
				for k, v := range serialM {
					if partM[k] != v {
						t.Errorf("%s: metric %s = %d, serial %d", tag, k, partM[k], v)
					}
				}
				t.Fatalf("%s: chaos-plan metrics diverge from serial", tag)
			}
		}
	}
}

// TestPartitionedRejectsSerialOnlyFeatures pins the gates: fault rules
// touching cross-partition trunks, phase recording, tracing observers, and
// RunUntil refuse to combine with the partitioned engine — while
// partition-internal fault rules are allowed.
func TestPartitionedRejectsSerialOnlyFeatures(t *testing.T) {
	cfg := clos2Config(32, 8, 2)
	cfg.Fault = &fault.Plan{Loss: []fault.LossRule{{Links: fault.AllLinks(), Rate: 0.1}}}
	if err := cfg.Validate(); err == nil {
		t.Errorf("Validate accepted an all-links plan on a partitioned cluster")
	} else if !strings.Contains(fmt.Sprint(err), "trunk") {
		t.Errorf("all-links rejection does not name the offending trunk: %v", err)
	}
	// Crash a switch that sits on a cross-partition trunk: find one from
	// the same assignment Validate computes.
	spec, _ := cfg.topoSpec()
	top := topo.MustBuild(spec)
	assign, err := topo.PartitionSwitches(top, cfg.Partitions)
	if err != nil {
		t.Fatalf("PartitionSwitches: %v", err)
	}
	crossSwitch := -1
	for _, tr := range top.Trunks {
		if assign[tr.A] != assign[tr.B] {
			crossSwitch = tr.A
			break
		}
	}
	if crossSwitch < 0 {
		t.Fatalf("no cross-partition trunk in a %d-partition Clos2", cfg.Partitions)
	}
	cfg.Fault = &fault.Plan{SwitchCrashes: []fault.SwitchCrash{{Switch: crossSwitch, At: 100}}}
	if err := cfg.Validate(); err == nil {
		t.Errorf("Validate accepted a trunk-adjacent switch crash on a partitioned cluster")
	} else if !strings.Contains(fmt.Sprint(err), "trunk") {
		t.Errorf("switch-crash rejection does not name the offending trunk: %v", err)
	}
	cfg.Fault = &fault.Plan{
		Loss:    []fault.LossRule{{Links: fault.NodeLinks(3), Rate: 0.1}},
		Crashes: []fault.Crash{{Node: 7, At: 1000}},
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("Validate rejected a node-scoped plan on a partitioned cluster: %v", err)
	}

	cl := New(clos2Config(32, 8, 2))
	mustPanic(t, "SetPhaseRecorder", func() { cl.SetPhaseRecorder(phase.NewRecorder()) })
	mustPanic(t, "SetObserver", func() { cl.Fabric().SetObserver(nopObserver{}) })
	mustPanic(t, "RunUntil", func() { cl.RunUntil(5) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s on a partitioned cluster did not panic", what)
		}
	}()
	fn()
}

type nopObserver struct{}

func (nopObserver) PacketInjected(*network.Packet)        {}
func (nopObserver) PacketDelivered(*network.Packet)       {}
func (nopObserver) PacketDropped(*network.Packet, string) {}
