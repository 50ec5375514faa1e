package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"gmsim/internal/cluster"
	"gmsim/internal/core"
	"gmsim/internal/gm"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/mpi"
	"gmsim/internal/network"
	"gmsim/internal/sim"
	"gmsim/internal/stats"
	"gmsim/internal/trace"
)

// The one run path. Every measurement in this package goes through the two
// tiers below: a Session puts each rank behind an open GM port and a
// core.Comm and turns whatever goes wrong into a returned error; measure
// runs the paper's protocol ("we ran 100,000 barriers consecutively and took
// the average latency") on top of it, for every Op. Run is the single entry
// point, RunAll its batch over the worker pool.

// RankBody is what one simulated process does once its port is open.
type RankBody func(p *host.Process, comm *core.Comm) error

// Session is tier 1: a built cluster whose spawned ranks each open GM port
// 2, wrap it in a core.Comm with pre-posted receive buffers, and run a body
// that returns an error instead of panicking. Close it when done.
type Session struct {
	Cluster *cluster.Cluster
	errs    []error // by node
}

// NewSession builds the cluster, or reports why the configuration cannot
// build (infeasible topology, bad fault plan).
func NewSession(cfg cluster.Config) (*Session, error) {
	cl, err := cluster.Build(cfg)
	if err != nil {
		return nil, err
	}
	return &Session{Cluster: cl, errs: make([]error, cfg.Nodes)}, nil
}

// Spawn starts body on the given node (rank == node) with bufs receive
// buffers pre-posted.
func (s *Session) Spawn(node, bufs int, body RankBody) {
	cl := s.Cluster
	cl.Spawn(node, node, func(p *host.Process) {
		err := func() error {
			port, err := gm.Open(p, cl.MCP(node), 2)
			if err != nil {
				return err
			}
			comm, err := core.NewComm(p, port, bufs)
			if err != nil {
				return err
			}
			return body(p, comm)
		}()
		// A rank whose clock leads the event loop (sim.Proc) may yet be
		// crashed before the instant it returned at.
		p.Proc().Sync()
		s.errs[node] = err
	})
}

// SpawnAll starts body on every node — the paper's "each node has only one
// process" configuration — under the harness's one buffer rule:
// provisioning scales with the cluster so paper-scale runs never stall on
// buffers, but past 1024 nodes the linear rule would post tens of
// thousands of tokens per NIC (gigabytes across an 8192-node fabric) for a
// barrier that keeps at most ~2(log n + dim) frames outstanding per node.
// The cap applies only above 1024 nodes, so every pinned timing at paper
// and 1024-node scale keeps its historical buffer count.
func (s *Session) SpawnAll(body RankBody) {
	n := s.Cluster.Nodes()
	bufs := 4*n + 16
	if n > 1024 {
		bufs = 256
	}
	for i := 0; i < n; i++ {
		s.Spawn(i, bufs, body)
	}
}

// Run drains the simulation. A rank that returned an error usually strands
// its peers, so the first rank error (in rank order) is reported in
// preference to the deadlock it caused.
func (s *Session) Run() error {
	drainErr := s.Cluster.Drain()
	for rank, err := range s.errs {
		if err != nil {
			return fmt.Errorf("experiments: rank %d: %w", rank, err)
		}
	}
	return drainErr
}

// Close releases whatever processes the run left parked (crashed or
// stranded ranks), so a finished session holds no parked coroutines.
func (s *Session) Close() { s.Cluster.Close() }

// Observed is a barrier measurement with full-stack observability attached:
// the plain Result, plus the Section 2.2 decomposition of the timed window
// at rank 0, the cluster's always-on metrics, and the recorder itself (for
// Chrome export or span-level inspection).
type Observed struct {
	Result
	// Decomp attributes the timed window [Result.Start, Result.End) at
	// rank 0 to the paper's phases. Its Critical partition sums bit-exactly
	// to End-Start.
	Decomp trace.Decomposition
	// Metrics holds the cluster's counter registry after the run.
	Metrics *stats.Registry
	// Rec is the full-stack recorder; spans and fabric events cover the
	// timed iterations only (recording is gated around them).
	Rec *trace.Recorder
}

// Outcome is everything one run produces. Summary is always filled;
// Decomp, Metrics and Rec only when the run was observed.
type Outcome struct {
	Observed
	Summary ScenarioSummary
}

// Run is the single entry point: Warmup+Iters operations of the spec's Op
// on every rank, timed at rank 0 (a collective: across ranks; streams: per
// pair; see measure). A degraded collective completion counts as
// completed, its dead set recorded as a barrier's is. Failure detection
// (spec.Cluster.DetectFailures) is a property of the cluster, not of the
// harness: under a crash plan the injector kills the victim's process,
// survivors complete degraded and keep going, and the Summary records who
// finished and what each believed dead. observe attaches the full-stack
// trace recorder around the timed window; it is an argument because
// tracing costs host time and memory, never simulated time.
func Run(spec Spec, observe bool) (Outcome, error) {
	if spec.Warmup == 0 {
		spec.Warmup = 5
	}
	if spec.Iters == 0 {
		spec.Iters = DefaultIters
	}
	s, err := NewSession(spec.Cluster)
	if err != nil {
		return Outcome{}, err
	}
	defer s.Close()
	var rec *trace.Recorder
	if observe {
		rec = trace.Attach(s.Cluster)
	}
	return s.measure(spec, rec)
}

// measure is Run on a session already built: spec.Warmup+spec.Iters
// operations on every rank, folded into an Outcome. A non-nil rec must be
// attached to the session's cluster and records the timed window only.
//
// Rank 0 stamps the timed window. A rank's clock may lead the event loop
// (sim.Proc), and a crash kills a rank at an instant of the loop's: what a
// rank publishes for the caller is therefore written after Sync, when the
// two agree, or it would have published a completion it did not live to see.
// That is one settle per iteration at rank 0 and one per rank at the end.
func (s *Session) measure(spec Spec, rec *trace.Recorder) (Outcome, error) {
	cl := s.Cluster
	n := cl.Nodes()
	pairOf, err := spec.validate(n)
	if err != nil {
		return Outcome{}, err
	}
	warmup, iters := spec.Warmup, spec.Iters
	if spec.Op == Streams {
		warmup = 0
	}
	g := core.UniformGroup(n, 2)
	// One leaf grouping per cell: every rank's Comm gets the same pointer.
	var lm *core.LeafMap
	if spec.TopoAware {
		lm = core.NewLeafMap(cl.Topology().LeafOf())
	}
	lastDead := make([][]network.NodeID, n)
	// A collective is timed by E10's protocol: an untimed PE barrier gives
	// each round a common start line, and the round's sample is the latest
	// completion minus the latest start across ranks. Rank 0's clock alone
	// would time a one-way collective's producer, which completes without a
	// handshake.
	rounds := 0
	if spec.Op.collective() {
		rounds = warmup + iters
	}
	starts, ends := make([]sim.Time, rounds), make([]sim.Time, rounds)
	payload := core.EncodeInt64s(make([]int64, spec.Elems))
	if spec.Op == PingPong || spec.Op == Streams {
		payload = make([]byte, spec.Bytes)
	}
	// BSP's deterministic jitter schedule, shared by construction (seeded).
	var jitter [][]float64
	if spec.Op == BSP {
		rng := rand.New(rand.NewSource(12345))
		jitter = make([][]float64, n)
		for r := range jitter {
			jitter[r] = make([]float64, warmup+iters)
			for i := range jitter[r] {
				jitter[r][i] = rng.Float64() * spec.Imbalance * spec.GrainMicros
			}
		}
	}
	elapsed := make([]sim.Time, len(spec.Pairs)) // per stream pair

	// setup opens one rank's program: the function its i-th operation runs.
	setup := func(p *host.Process, comm *core.Comm) (func(i int) error, error) {
		rank := p.Rank()
		comm.SetLeafMap(lm)
		switch {
		case spec.Op.collective():
			return func(i int) error {
				if err := comm.Barrier(p, mcp.PE, g, rank, 0); err != nil {
					return err
				}
				start := p.Now()
				_, err := comm.Collective(p, spec.Level == NICLevel, spec.Op.coll(), mcp.OpSum, g, rank, spec.Dim, payload)
				var dead []network.NodeID
				if degraded := (*core.DegradedError)(nil); errors.As(err, &degraded) {
					err, dead = nil, degraded.Dead
				}
				if err != nil {
					return err
				}
				p.Proc().Sync() // publish only what this rank lived to see
				starts[i], ends[i] = max(starts[i], start), max(ends[i], p.Now())
				lastDead[rank] = dead
				return nil
			}, nil
		case spec.Op == PingPong:
			peer := g[1-rank]
			return func(int) error {
				if rank == 0 { // rank 0 serves, rank 1 returns
					if err := comm.Send(p, peer, payload); err != nil {
						return err
					}
				}
				if _, err := comm.RecvFrom(p, peer); err != nil || rank == 0 {
					return err
				}
				return comm.Send(p, peer, payload)
			}, nil
		case spec.Op == MPIBarrier:
			mcfg := mpi.DefaultConfig()
			mcfg.UseNICBarrier = spec.Level == NICLevel
			world, err := mpi.NewWorld(comm, g, rank, mcfg)
			if err != nil {
				return nil, err
			}
			return func(int) error { return world.Barrier(p) }, nil
		case spec.Op == Streams:
			return streamRank(p, comm, g, spec, pairOf[rank]-1, payload, elapsed), nil
		}
		var barrier func(int) error
		if spec.Level == HostLevel {
			barrier = func(int) error { return comm.HostBarrier(p, spec.Alg, g, rank, spec.Dim) }
		} else {
			barrier = func(int) error {
				pb, err := comm.StartBarrier(p, spec.Alg, g, rank, spec.Dim)
				if err != nil {
					return err
				}
				pb.Wait(p)
				if rank == 0 {
					p.Proc().Sync() // lastDead[0] is reported even if rank 0 never finishes
				}
				lastDead[rank] = pb.Dead()
				return nil
			}
		}
		if spec.Op == Barrier {
			return barrier, nil
		}
		return func(i int) error { // BSP: compute, then the barrier
			p.Compute(sim.FromMicros(spec.GrainMicros + jitter[rank][i]))
			return barrier(i)
		}, nil
	}

	// Rank 0's clock around the timed iterations and its slowest single
	// iteration, and which ranks got through every iteration (crashed ranks
	// never do).
	var w struct{ t0, t1, maxIter sim.Time }
	finished := make([]bool, n)
	if rec != nil {
		rec.Disable() // warm-up is not recorded
	}
	s.SpawnAll(func(p *host.Process, comm *core.Comm) error {
		one, err := setup(p, comm)
		if err != nil {
			return err
		}
		rank := p.Rank()
		for i := 0; i < warmup; i++ {
			if err := one(i); err != nil {
				return err
			}
		}
		if rank == 0 {
			p.Proc().Sync()
			w.t0 = p.Now()
			if rec != nil {
				rec.Enable()
			}
		}
		for i := 0; i < iters; i++ {
			before := p.Now()
			if err := one(warmup + i); err != nil {
				return err
			}
			if rank == 0 {
				if spec.Op != Streams { // see streamRank
					p.Proc().Sync()
				}
				w.maxIter = max(w.maxIter, p.Now()-before)
			}
		}
		if rank == 0 {
			w.t1 = p.Now()
			if rec != nil {
				rec.Disable()
			}
		}
		p.Proc().Sync()
		finished[rank] = true
		return nil
	})
	if err := s.Run(); err != nil {
		return Outcome{}, err
	}

	sum := ScenarioSummary{
		Nodes:         n,
		Alg:           spec.label(),
		MeanMicros:    (w.t1 - w.t0).Micros() / float64(iters),
		MaxIterMicros: w.maxIter.Micros(),
		DrainMicros:   cl.Sim().Now().Micros(),
		Dead:          lastDead[0],
	}
	switch {
	case spec.Op.collective():
		total := 0.0
		for i := warmup; i < len(starts); i++ {
			total += (ends[i] - starts[i]).Micros()
		}
		sum.MeanMicros = total / float64(iters)
	case spec.Op == PingPong:
		sum.MeanMicros /= 2 // one way: half the round trip
	case spec.Op == Streams:
		var total sim.Time
		for _, e := range elapsed {
			total += e
		}
		sum.MeanMicros = total.Micros() / float64(len(elapsed)) / float64(iters)
	}
	for i := 0; i < n; i++ {
		st := cl.MCP(i).Stats()
		sum.Barriers += st.BarrierCompleted
		sum.Retrans += st.Retransmissions + st.BarrierResends
		sum.Probes += st.BarrierProbes
		sum.Declared += st.PeersDeclaredDead
		sum.Skipped += st.BarrierPeersSkipped
		sum.Promotions += st.BarrierRootPromotions
		sum.Repairs += st.BarrierRepairs
		if finished[i] {
			sum.Finished++
			if slices.Equal(lastDead[i], lastDead[0]) {
				sum.Agree++
			}
		}
	}
	if inj := cl.Fault(); inj != nil {
		sum.Faults = inj.Counters()
	}
	out := Outcome{Summary: sum}
	out.Result = Result{
		Spec:       spec,
		MeanMicros: sum.MeanMicros,
		Barriers:   sum.Barriers,
		Retrans:    sum.Retrans,
		Start:      w.t0,
		End:        w.t1,
	}
	if rec != nil {
		out.Decomp = rec.Decompose(0, w.t0, w.t1)
		out.Metrics = cl.Metrics()
		out.Rec = rec
	}
	return out, nil
}

// validate rejects a spec measure cannot run on n nodes. For Streams it also
// returns each node's pair index plus one (0 for a node in none).
func (spec Spec) validate(n int) ([]int, error) {
	switch {
	case spec.Op < Barrier || spec.Op > Streams || spec.Elems < 0:
		return nil, fmt.Errorf("experiments: op %d with %d elements", spec.Op, spec.Elems)
	case spec.Iters < 1 || spec.Warmup < 0:
		return nil, fmt.Errorf("experiments: iters = %d, warmup = %d: need iters >= 1 and warmup >= 0", spec.Iters, spec.Warmup)
	case spec.Bytes < 0:
		return nil, fmt.Errorf("experiments: %d-byte messages", spec.Bytes)
	case spec.GrainMicros < 0 || spec.Imbalance < 0:
		return nil, fmt.Errorf("experiments: grain %vus, imbalance %v: need both >= 0", spec.GrainMicros, spec.Imbalance)
	case spec.Op == PingPong && n != 2:
		return nil, fmt.Errorf("experiments: ping-pong on %d nodes, need 2", n)
	case spec.Op != Streams:
		return nil, nil
	case len(spec.Pairs) == 0:
		return nil, fmt.Errorf("experiments: streams with no pairs")
	}
	pairOf := make([]int, n)
	for pi, pr := range spec.Pairs {
		for _, node := range pr {
			switch {
			case node < 0 || node >= n:
				return nil, fmt.Errorf("experiments: stream pair %d names node %d of %d", pi, node, n)
			case pairOf[node] != 0:
				return nil, fmt.Errorf("experiments: node %d is in stream pairs %d and %d", node, pairOf[node]-1, pi)
			}
			pairOf[node] = pi + 1
		}
	}
	return pairOf, nil
}

// streamRank is one rank's Streams program: pair pi's sender sends one
// message per operation and, after the last, waits for the receiver's ack
// and publishes the pair's window from its first send; the receiver takes
// one message per operation and acks the last. A node in no pair idles.
//
// Rank 0 does not settle after each operation of a stream: a sender's sends
// lead the event loop back to back, as the protocol always had. Settling
// each one reorders same-instant arrivals at a shared trunk and moves the
// cross-switch cells (59.80 to 59.62 µs per message at two pairs and 20
// messages), so its slowest-iteration figure is a lead, not a settled span.
func streamRank(p *host.Process, comm *core.Comm, g core.Group, spec Spec, pi int, payload []byte, elapsed []sim.Time) func(int) error {
	if pi < 0 {
		return func(int) error { return nil }
	}
	last := spec.Iters - 1
	pr := spec.Pairs[pi]
	if p.Rank() == pr[1] {
		peer := g[pr[0]]
		return func(i int) error {
			if _, err := comm.RecvFrom(p, peer); err != nil || i < last {
				return err
			}
			return comm.Send(p, peer, []byte{0xAC})
		}
	}
	peer := g[pr[1]]
	var t0 sim.Time
	return func(i int) error {
		if i == 0 {
			t0 = p.Now()
		}
		if err := comm.Send(p, peer, payload); err != nil || i < last {
			return err
		}
		if _, err := comm.RecvFrom(p, peer); err != nil { // the receiver's ack
			return err
		}
		p.Proc().Sync() // publish only what this rank lived to see
		elapsed[pi] = p.Now() - t0
		return nil
	}
}
