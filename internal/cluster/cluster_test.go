package cluster

import (
	"testing"

	"gmsim/internal/host"
	"gmsim/internal/lanai"
	"gmsim/internal/network"
	"gmsim/internal/sim"
	"gmsim/internal/topo"
)

func TestDefaultConfigBuilds(t *testing.T) {
	cl := New(DefaultConfig(4))
	if cl.Nodes() != 4 {
		t.Fatalf("Nodes = %d", cl.Nodes())
	}
	if cl.Sim() == nil || cl.Fabric() == nil {
		t.Fatal("nil sim/fabric")
	}
	for i := 0; i < 4; i++ {
		if cl.MCP(i) == nil {
			t.Fatalf("node %d missing components", i)
		}
		if cl.MCP(i).Node() != network.NodeID(i) {
			t.Fatalf("node id mismatch at %d", i)
		}
	}
	if cl.Config().NIC.Name != lanai.LANai43().Name {
		t.Fatal("default NIC should be LANai 4.3")
	}
}

func TestLANai72Config(t *testing.T) {
	cl := New(LANai72Config(8))
	if cl.Config().NIC.ClockMHz != 66 {
		t.Fatalf("clock = %v", cl.Config().NIC.ClockMHz)
	}
}

func TestSwitchAutoSized(t *testing.T) {
	cfg := DefaultConfig(20) // more nodes than the default 16-port switch
	cfg.Switch.Ports = 4
	cl := New(cfg)
	// All routes must exist.
	for i := 1; i < 20; i++ {
		if _, err := cl.Topology().Route(0, i); err != nil {
			t.Fatalf("route 0->%d: %v", i, err)
		}
	}
}

func TestTwoLevelTopologyRoutes(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Topology = &topo.Spec{Kind: topo.TwoSwitch}
	cl := New(cfg)
	// Same-side route: 1 hop; cross-side: 2 hops.
	r, err := cl.Topology().Route(0, 1)
	if err != nil || len(r) != 1 {
		t.Fatalf("same-side route = %v, %v", r, err)
	}
	r, err = cl.Topology().Route(0, 7)
	if err != nil || len(r) != 2 {
		t.Fatalf("cross-side route = %v, %v", r, err)
	}
}

func TestSpawnRunsProcesses(t *testing.T) {
	cl := New(DefaultConfig(3))
	ranks := make(map[int]bool)
	cl.SpawnAll(func(p *host.Process) {
		ranks[p.Rank()] = true
		if int(p.Node()) != p.Rank() {
			t.Errorf("node %v != rank %d", p.Node(), p.Rank())
		}
	})
	cl.Run()
	if len(ranks) != 3 {
		t.Fatalf("ran %d processes, want 3", len(ranks))
	}
}

func TestSpawnOutOfRangePanics(t *testing.T) {
	cl := New(DefaultConfig(2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cl.Spawn(5, 0, func(p *host.Process) {})
}

func TestZeroNodesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(DefaultConfig(0))
}

func TestRunDetectsDeadlock(t *testing.T) {
	cl := New(DefaultConfig(1))
	sig := cl.Sim().NewSignal()
	cl.Spawn(0, 0, func(p *host.Process) {
		p.Wait(sig) // nobody will ever fire this
	})
	defer func() {
		if recover() == nil {
			t.Fatal("Run should panic on stranded process")
		}
		sig.Fire() // unstick the goroutine
	}()
	cl.Run()
}

func TestRunUntil(t *testing.T) {
	cl := New(DefaultConfig(1))
	done := false
	cl.Spawn(0, 0, func(p *host.Process) {
		p.Compute(100 * sim.Microsecond)
		done = true
	})
	cl.Sim().RunUntil(50 * sim.Microsecond)
	if done {
		t.Fatal("process finished too early")
	}
	cl.Sim().RunUntil(200 * sim.Microsecond)
	if !done {
		t.Fatal("process did not finish")
	}
}

// lastLink is a pass-through fault hook that remembers the last channel each
// packet crossed.
type lastLink map[*network.Packet]network.LinkID

func (l lastLink) OnHop(link network.LinkID, p *network.Packet) network.Verdict {
	l[p] = link
	return network.Verdict{}
}

// TestFabricRoutesMatchTopology: the fabric only forwards, so the routes
// the declarative topology computes must work on the cabling Build
// materializes from the same plan — a packet injected along every ordered
// pair's route is delivered, over the destination NIC's own cable.
func TestFabricRoutesMatchTopology(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"single16", DefaultConfig(16)},
		{"twolevel32", func() Config {
			c := DefaultConfig(32)
			c.Topology = &topo.Spec{Kind: topo.TwoSwitch}
			return c
		}()},
		{"clos2", func() Config {
			c := DefaultConfig(24)
			c.Switch = network.DefaultSwitchParams(8)
			c.Topology = &topo.Spec{Kind: topo.Clos2, Radix: 8}
			return c
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl := New(tc.cfg)
			f, n := cl.Fabric(), cl.Nodes()
			last := lastLink{}
			f.SetFaultHook(last)
			var sent []*network.Packet
			for s := 0; s < n; s++ {
				for d := 0; d < n; d++ {
					if s == d {
						continue
					}
					tr, err := cl.Topology().Route(s, d)
					if err != nil {
						t.Fatalf("topo route %d->%d: %v", s, d, err)
					}
					p := &network.Packet{Route: tr, Src: network.NodeID(s), Dst: network.NodeID(d), Size: 16}
					f.Iface(p.Src).Transmit(p)
					sent = append(sent, p)
				}
			}
			cl.Run()
			if f.Delivered() != int64(len(sent)) || f.Dropped() != 0 {
				t.Fatalf("delivered %d, dropped %d of %d packets", f.Delivered(), f.Dropped(), len(sent))
			}
			for _, p := range sent {
				if nl, _ := f.NICLinkIDs(p.Dst); last[p] != nl.Rx {
					t.Fatalf("packet %d->%d arrived over link %d, want NIC %d's cable (link %d)",
						p.Src, p.Dst, last[p], p.Dst, nl.Rx)
				}
			}
		})
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := DefaultConfig(0)
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted zero nodes")
	}
	over := DefaultConfig(24)
	over.Switch = network.DefaultSwitchParams(4)
	over.Topology = &topo.Spec{Kind: topo.Clos2, Radix: 4}
	if err := over.Validate(); err == nil {
		t.Fatal("Validate accepted a cluster over the topology capacity")
	}
	mismatch := DefaultConfig(8)
	mismatch.Topology = &topo.Spec{Kind: topo.Single, Nodes: 4, Radix: 16}
	if err := mismatch.Validate(); err == nil {
		t.Fatal("Validate accepted a topology node-count mismatch")
	}
	// A valid configuration is checked, not built: no plan, no allocation.
	good := DefaultConfig(256)
	good.Topology = &topo.Spec{Kind: topo.Clos3, Radix: 16}
	if got := testing.AllocsPerRun(10, func() {
		if err := good.Validate(); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("Validate allocated %v objects", got)
	}
}

func TestNewPanicsOnInvalidTopology(t *testing.T) {
	cfg := DefaultConfig(24)
	cfg.Switch = network.DefaultSwitchParams(4)
	cfg.Topology = &topo.Spec{Kind: topo.Clos2, Radix: 4}
	defer func() {
		if recover() == nil {
			t.Fatal("New should panic on an invalid topology")
		}
	}()
	New(cfg)
}

// TestBuildAllocsPerNode bounds the heap objects cluster.Build makes per
// node on a radix-16 clos3 fat-tree at 64 and 256 nodes. The fabric, the
// cards and their firmware are blocks sized from the plan, the firmware's
// pools and callbacks are the cluster's, and each card is attached to its
// interface and routes as it is, so what is left per node is the
// interface's delivery callback: the count per node must not grow with n.
func TestBuildAllocsPerNode(t *testing.T) {
	const limit = 3 // objects per node: 2.64 and 1.60 today; 16.56 and 15.58 with ~14 firmware objects a card, 38 and 35 with a heap object per channel, card and DMA engine
	var perNode []float64
	for _, n := range []int{64, 256} {
		cfg := DefaultConfig(n)
		cfg.Topology = &topo.Spec{Kind: topo.Clos3, Radix: 16}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Build(cfg); err != nil {
				t.Fatal(err)
			}
		})
		perNode = append(perNode, allocs/float64(n))
		t.Logf("%d nodes: %.0f objects, %.2f per node", n, allocs, allocs/float64(n))
	}
	for i, n := range []int{64, 256} {
		if perNode[i] > limit {
			t.Errorf("%d nodes: %.2f objects per node, limit %d", n, perNode[i], limit)
		}
	}
	if perNode[1] > perNode[0] {
		t.Errorf("objects per node grew with n: %.2f at 64 nodes, %.2f at 256", perNode[0], perNode[1])
	}
}
