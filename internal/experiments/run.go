package experiments

import (
	"errors"
	"fmt"
	"slices"

	"gmsim/internal/cluster"
	"gmsim/internal/core"
	"gmsim/internal/gm"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/network"
	"gmsim/internal/sim"
	"gmsim/internal/stats"
	"gmsim/internal/trace"
)

// The one run path. Every measurement in this package — and every cmd/
// tool that drives simulated processes — goes through the two tiers below:
// a Session puts each rank behind an open GM port and a core.Comm and turns
// whatever goes wrong into a returned error; timed runs the paper's
// protocol ("we ran 100,000 barriers consecutively and took the average
// latency") on top of it. Run is the single entry point for a barrier or a
// collective.

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

// window is what a timed loop leaves behind: rank 0's clock around the
// timed iterations, its slowest single iteration, and which ranks got
// through every iteration (crashed ranks never do).
type window struct {
	t0, t1, maxIter sim.Time
	finished        []bool
}

func (w *window) meanMicros(iters int) float64 {
	return (w.t1 - w.t0).Micros() / float64(iters)
}

// timed is tier 2, the measurement protocol: every rank runs warmup then
// iters calls of the per-rank function setup returns (its argument counts
// from 0 across both phases), rank 0 stamps the timed window, and the
// simulation drains. A non-nil rec records the timed window only.
//
// A rank's clock may lead the event loop (sim.Proc), and a crash kills a rank
// at an instant of the loop's: what the window holds for the caller is
// therefore written after Sync, when the two agree, or a rank would have
// published a completion it did not live to see. That is one settle per
// iteration at rank 0 and one per rank at the end.
func (s *Session) timed(warmup, iters int, rec *trace.Recorder,
	setup func(p *host.Process, comm *core.Comm) (one func(i int) error, err error)) (*window, error) {
	if iters < 1 || warmup < 0 {
		return nil, fmt.Errorf("experiments: iters = %d, warmup = %d: need iters >= 1 and warmup >= 0", iters, warmup)
	}
	w := &window{finished: make([]bool, s.Cluster.Nodes())}
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
				p.Proc().Sync()
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
		w.finished[rank] = true
		return nil
	})
	return w, s.Run()
}

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

// Run is the single entry point: Warmup+Iters barriers or collectives of
// the spec'd kind on every rank, timed at rank 0 (a collective: across
// ranks, see measure). A degraded collective completion counts as
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
// attached to the session's cluster.
func (s *Session) measure(spec Spec, rec *trace.Recorder) (Outcome, error) {
	if spec.Op < Barrier || spec.Op > AllGather || spec.Elems < 0 {
		return Outcome{}, fmt.Errorf("experiments: op %d with %d elements", spec.Op, spec.Elems)
	}
	cl := s.Cluster
	n := cl.Nodes()
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
	if spec.Op != Barrier {
		rounds = max(spec.Warmup+spec.Iters, 0) // timed rejects a negative count
	}
	starts, ends := make([]sim.Time, rounds), make([]sim.Time, rounds)
	payload := core.EncodeInt64s(make([]int64, spec.Elems))
	w, err := s.timed(spec.Warmup, spec.Iters, rec, func(p *host.Process, comm *core.Comm) (func(int) error, error) {
		rank := p.Rank()
		comm.SetLeafMap(lm)
		switch {
		case spec.Op != Barrier:
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
		case spec.Level == HostLevel:
			return func(int) error { return comm.HostBarrier(p, spec.Alg, g, rank, spec.Dim) }, nil
		}
		return func(int) error {
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
		}, nil
	})
	if err != nil {
		return Outcome{}, err
	}

	sum := ScenarioSummary{
		Nodes:         n,
		Alg:           spec.label(),
		MeanMicros:    w.meanMicros(spec.Iters),
		MaxIterMicros: w.maxIter.Micros(),
		DrainMicros:   cl.Sim().Now().Micros(),
		Dead:          lastDead[0],
	}
	if spec.Op != Barrier {
		total := 0.0
		for i := spec.Warmup; i < len(starts); i++ {
			total += (ends[i] - starts[i]).Micros()
		}
		sum.MeanMicros = total / float64(spec.Iters)
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
		if w.finished[i] {
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

// must unwraps the (value, error) of a harness call for the figure-level
// functions whose row-only signatures have nowhere to put an error.
func must[T any](v T, err error) T {
	check(err)
	return v
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
