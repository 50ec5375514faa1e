// Package cluster assembles a complete simulated Myrinet/GM cluster: hosts,
// LANai NICs running the MCP firmware, and a switch fabric — the testbed of
// the paper's Section 6 (16 nodes with LANai 4.3 on a 16-port switch, eight
// nodes with LANai 7.2 on an 8-port switch), generalized to arbitrary size
// and to two-level switch topologies.
package cluster

import (
	"fmt"
	"reflect"

	"gmsim/internal/fault"
	"gmsim/internal/host"
	"gmsim/internal/lanai"
	"gmsim/internal/mcp"
	"gmsim/internal/network"
	"gmsim/internal/phase"
	"gmsim/internal/sim"
	"gmsim/internal/stats"
	"gmsim/internal/topo"
)

// Config describes a cluster.
type Config struct {
	// Nodes is the number of nodes (one NIC and one host each).
	Nodes int
	// NIC is the card model for every node (LANai43 or LANai72).
	NIC lanai.Model
	// Firmware gives the MCP task costs.
	Firmware mcp.FirmwareParams
	// Host gives the host-side cost parameters.
	Host host.Params
	// Link and Switch describe the fabric.
	Link   network.LinkParams
	Switch network.SwitchParams
	// Topology, when non-nil, declares the switch fabric shape (see
	// internal/topo): two switches joined by an uplink, star-of-switches,
	// two- or three-level Clos, etc. Nil means the paper's layout — one
	// crossbar sized to the node count. Spec.Nodes and Spec.Radix may be
	// left zero to mean Nodes and Switch.Ports.
	Topology *topo.Spec
	// ReliableBarrier and LoopbackFlag select the firmware variants (see
	// mcp.Config).
	ReliableBarrier bool
	LoopbackFlag    bool
	// DetectFailures enables the firmware's crash-fault detector: retry
	// exhaustion and barrier-watchdog probes declare unresponsive peers
	// dead, and in-flight barriers repair around them (see mcp.Config.
	// DetectFailures). Requires ReliableBarrier; pair with a positive
	// Firmware.BarrierTimeout to also detect peers the node is only
	// waiting on. Off by default — fail-free runs are bit-identical with
	// the flag on or off, but off documents the paper's fail-free model.
	DetectFailures bool
	// Fault optionally attaches a fault-injection plan (see internal/fault).
	// The plan is pure data and may be shared across clusters; each cluster
	// derives its own random streams from it. A nil or empty plan changes
	// nothing about the simulation.
	Fault *fault.Plan
}

// DefaultConfig returns the paper's LANai 4.3 testbed scaled to n nodes:
// one switch with a port per node.
func DefaultConfig(n int) Config {
	return Config{
		Nodes:    n,
		NIC:      lanai.LANai43(),
		Firmware: mcp.DefaultFirmwareParams(),
		Host:     host.DefaultParams(),
		Link:     network.DefaultLinkParams(),
		Switch:   network.DefaultSwitchParams(n),
	}
}

// LANai72Config returns the paper's LANai 7.2 testbed scaled to n nodes.
func LANai72Config(n int) Config {
	c := DefaultConfig(n)
	c.NIC = lanai.LANai72()
	return c
}

// Cluster is a built, runnable cluster.
type Cluster struct {
	cfg    Config
	sim    *sim.Simulator
	fabric *network.Fabric
	top    *topo.Topology
	nics   []lanai.NIC // one block, never resized
	mcps   []mcp.MCP   // one block, never resized
	procs  []*host.Process
	inj    *fault.Injector
	phases *phase.Recorder
}

// topoSpec checks the configuration and resolves its topology
// declaration: an explicit Spec is completed with the node count and, when
// it leaves the radix zero, Switch.Ports; a nil Topology is the single
// crossbar of Switch.Ports ports, grown to the node count.
func (cfg Config) topoSpec() (topo.Spec, error) {
	if cfg.Nodes < 1 {
		return topo.Spec{}, fmt.Errorf("cluster: need at least one node, have %d", cfg.Nodes)
	}
	spec := topo.Spec{Kind: topo.Single, Nodes: cfg.Nodes, Radix: cfg.Switch.Ports}
	if cfg.Topology != nil {
		spec = *cfg.Topology
		if spec.Nodes == 0 {
			spec.Nodes = cfg.Nodes
		}
		if spec.Nodes != cfg.Nodes {
			return spec, fmt.Errorf("cluster: topology declares %d nodes but the cluster has %d",
				spec.Nodes, cfg.Nodes)
		}
		if spec.Radix == 0 && cfg.Switch.Ports > 0 {
			spec.Radix = cfg.Switch.Ports
		}
	}
	if err := spec.Validate(); err != nil {
		return spec, fmt.Errorf("cluster: %d nodes do not fit the topology: %w", cfg.Nodes, err)
	}
	if cfg.Fault != nil {
		if err := cfg.Fault.Validate(); err != nil {
			return spec, fmt.Errorf("cluster: %w", err)
		}
	}
	return spec, nil
}

// Validate reports why the configuration cannot build: no nodes, a switch
// radix with too few ports for the node count, an infeasible topology
// (capacity exceeded, odd fat-tree radix), or a node-count mismatch
// between Config and its topology spec. New refuses (with this error) to
// build invalid configurations instead of colliding on port indices.
// Validate builds nothing.
func (cfg Config) Validate() error {
	_, err := cfg.topoSpec()
	return err
}

// Plan checks the configuration and builds its wiring plan: the first step
// of Build, and the way a caller without a cluster gets the fabric a
// configuration describes. Each call builds a new plan.
func (cfg Config) Plan() (*topo.Topology, error) {
	spec, err := cfg.topoSpec()
	if err != nil {
		return nil, err
	}
	return topo.Build(spec)
}

// New is Build for configurations known to be valid: it panics with the
// Build error. Callers with user-supplied configs use Build.
func New(cfg Config) *Cluster {
	c, err := Build(cfg)
	if err != nil {
		panic(err.Error())
	}
	return c
}

// Build builds a cluster from the configuration, or reports why the
// configuration cannot build (see Validate).
func Build(cfg Config) (*Cluster, error) {
	top, err := cfg.Plan()
	if err != nil {
		return nil, err
	}
	s := sim.New()
	mcfg := mcp.DefaultConfig()
	mcfg.Params = cfg.Firmware
	mcfg.ReliableBarrier = cfg.ReliableBarrier
	mcfg.LoopbackFlag = cfg.LoopbackFlag
	mcfg.DetectFailures = cfg.DetectFailures
	// The fabric, the cards and their firmware are blocks sized from the
	// plan once; nothing of them grows while the cluster is built.
	c := &Cluster{
		cfg: cfg, sim: s, top: top,
		fabric: network.New(s, top.Shape()),
		nics:   lanai.NewNICs(s, cfg.NIC, cfg.Nodes),
	}
	c.mcps = mcp.NewMCPs(c.nics, mcfg)
	f := c.fabric

	sws := top.Materialize(f, cfg.Switch, cfg.Link)
	for i := range c.mcps {
		node := network.NodeID(i)
		m := &c.mcps[i]
		place := top.NICs[i]
		// Routes come from the topology's address arithmetic, the one
		// routing path: the fabric only forwards. The bytes are what a BFS
		// over the cabling with lowest-port tie-breaking finds (topo's
		// tests hold them to that oracle), at O(1) per lookup — which
		// matters when 8192 NICs each talk to dozens of peers.
		m.Attach(f.AttachNIC(node, sws[place.Switch], place.Port, cfg.Link, m), top)
	}
	if cfg.Fault != nil {
		byNode := make(map[network.NodeID]*lanai.NIC, len(c.nics))
		for i := range c.nics {
			byNode[network.NodeID(i)] = &c.nics[i]
		}
		inj, err := fault.Attach(cfg.Fault, f, byNode)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		c.inj = inj
		// A node crash must also stop the node's host processes, or the
		// engine would report them stranded (they wait on a NIC that will
		// never answer), and take back the spans they recorded ahead of the
		// loop. Processes spawn after New returns, so scan at crash time.
		c.inj.OnNodeCrash(func(n network.NodeID) {
			for _, hp := range c.procs {
				if hp.Node() == n {
					hp.Proc().Kill()
				}
			}
			c.phases.Crashed(int32(n), c.sim.Now())
		})
	}
	return c, nil
}

// Sim returns the cluster's simulator.
func (c *Cluster) Sim() *sim.Simulator { return c.sim }

// Fabric returns the network fabric.
func (c *Cluster) Fabric() *network.Fabric { return c.fabric }

// Topology returns the wiring plan the cluster was built from (never nil;
// configs without one get the equivalent Single plan).
func (c *Cluster) Topology() *topo.Topology { return c.top }

// Nodes returns the node count.
func (c *Cluster) Nodes() int { return c.cfg.Nodes }

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// MCP returns node i's firmware.
func (c *Cluster) MCP(i int) *mcp.MCP { return &c.mcps[i] }

// Fault returns the attached fault injector, or nil when the configuration
// carried no plan.
func (c *Cluster) Fault() *fault.Injector { return c.inj }

// SetPhaseRecorder attaches one phase-span recorder to every NIC (firmware
// processor and both DMA engines) and to every process spawned afterwards.
// Call before SpawnAll. A nil recorder detaches the NICs (processes already
// spawned keep their recorder). trace.Attach wires this for you.
func (c *Cluster) SetPhaseRecorder(r *phase.Recorder) {
	c.phases = r
	for i := range c.nics {
		c.nics[i].SetPhaseRecorder(r, int32(i))
	}
}

// mcpCounters names every mcp.Stats counter for the registry, in field
// order. The walk is reflective so new firmware counters appear in Metrics
// without cluster changes.
var mcpCounters = func() []string {
	tp := reflect.TypeFor[mcp.Stats]()
	names := make([]string, tp.NumField())
	for i := range names {
		names[i] = "mcp." + tp.Field(i).Name
	}
	return names
}()

// phaseTotals names each phase's busy-time sum for the registry.
var phaseTotals = func() (names [phase.NumPhases]string) {
	for ph := range names {
		names[ph] = "phase." + phase.Phase(ph).String() + "_ns"
	}
	return names
}()

// Metrics aggregates the cluster's always-on counters into a registry:
// fabric packet counts, every firmware Stats field summed across NICs,
// NIC processor and DMA engine usage, and (when a phase recorder is
// attached) the per-phase busy-time sums in nanoseconds.
func (c *Cluster) Metrics() *stats.Registry {
	reg := stats.NewRegistry()
	reg.Set("fabric.delivered", c.fabric.Delivered())
	reg.Set("fabric.dropped", c.fabric.Dropped())

	// Every mcp.Stats counter, summed across NICs, then named.
	if len(c.mcps) > 0 {
		var st, sum mcp.Stats
		one, all := reflect.ValueOf(&st).Elem(), reflect.ValueOf(&sum).Elem()
		for i := range c.mcps {
			st = c.mcps[i].Stats()
			for i := range mcpCounters {
				all.Field(i).SetInt(all.Field(i).Int() + one.Field(i).Int())
			}
		}
		for i, name := range mcpCounters {
			reg.Set(name, all.Field(i).Int())
		}
	}
	var fwTasks, fwBusy, stalls int64
	var sdmaN, sdmaB, rdmaN, rdmaB int64
	for i := range c.nics {
		nic := &c.nics[i]
		fwTasks += nic.CPUTasks()
		fwBusy += int64(nic.CPUBusyTime())
		stalls += nic.Stalls()
		sdmaN += nic.SDMA().Transfers()
		sdmaB += nic.SDMA().Bytes()
		rdmaN += nic.RDMA().Transfers()
		rdmaB += nic.RDMA().Bytes()
	}
	reg.Set("fw.tasks", fwTasks)
	reg.Set("fw.busy_ns", fwBusy)
	reg.Set("fw.stalls", stalls)
	reg.Set("sdma.transfers", sdmaN)
	reg.Set("sdma.bytes", sdmaB)
	reg.Set("rdma.transfers", rdmaN)
	reg.Set("rdma.bytes", rdmaB)

	if c.phases != nil {
		totals := c.phases.Totals()
		for ph, name := range phaseTotals {
			reg.Set(name, int64(totals[ph]))
		}
		reg.Set("phase.spans", int64(c.phases.Len()))
	}
	return reg
}

// Start starts hp, a process in memory the caller owns, on node i with the
// given rank, running body(arg) (host.Process.Start): a harness that keeps
// more than the process per rank (experiments.Session) allocates the cells
// of all its ranks as one block and starts each here. Spawn and SpawnAll are
// Start on cells of their own.
func (c *Cluster) Start(hp *host.Process, i, rank int, body func(any), arg any) {
	if i < 0 || i >= c.cfg.Nodes {
		panic(fmt.Sprintf("cluster: no node %d", i))
	}
	hp.Start(c.sim, network.NodeID(i), rank, c.cfg.Host, body, arg)
	if c.phases != nil {
		hp.SetPhaseRecorder(c.phases)
	}
	c.procs = append(c.procs, hp)
}

// proc is the cell of a process Spawn or SpawnAll starts.
type proc struct {
	host.Process
	body func(p *host.Process)
}

// runProc is a Spawn or SpawnAll cell's body.
func runProc(a any) {
	c := a.(*proc)
	c.body(&c.Process)
}

// Spawn starts an application process on node i with the given rank.
// The body runs in simulated time; use the returned process's methods and
// the gm package for communication.
func (c *Cluster) Spawn(i, rank int, body func(p *host.Process)) *host.Process {
	cell := &proc{body: body}
	c.Start(&cell.Process, i, rank, runProc, cell)
	return &cell.Process
}

// SpawnAll starts one process per node, rank == node index — the paper's
// "each node has only one process" configuration. The processes are one
// block.
func (c *Cluster) SpawnAll(body func(p *host.Process)) {
	cells := make([]proc, c.cfg.Nodes)
	for i := range cells {
		cells[i].body = body
		c.Start(&cells[i].Process, i, i, runProc, &cells[i])
	}
}

// Run drives the simulation until no events remain. It panics if processes
// are left stranded (a lost-wakeup deadlock in the modeled program).
func (c *Cluster) Run() {
	if err := c.Drain(); err != nil {
		panic(err.Error())
	}
}

// Drain drives the simulation until no events remain and reports stranded
// processes as an error instead of panicking.
func (c *Cluster) Drain() error {
	c.sim.Run()
	if n := c.sim.Stranded(); n > 0 {
		return fmt.Errorf("cluster: %d process(es) deadlocked at t=%v", n, c.sim.Now())
	}
	return nil
}

// Close releases the processes a finished run left behind — killed by a
// crash fault or stranded by a deadlock — so their coroutines exit and the
// cluster becomes collectable (see sim.Simulator.Close). The cluster must
// not be run afterwards.
func (c *Cluster) Close() { c.sim.Close() }
