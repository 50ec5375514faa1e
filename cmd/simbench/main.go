// Command simbench measures the harness's wall-clock performance and emits
// a machine-readable summary so the perf trajectory is tracked across PRs.
//
// It reports:
//
//   - engine: ns/event and events/sec of the DES core, measured on a real
//     16-node NIC-PE barrier simulation (every event the cluster executes,
//     divided by wall time, single-threaded);
//   - schedule/pop and cancel micro-costs of the event queue;
//   - figures: wall-clock of a representative figure workload (Figure 5a +
//     the scale sweep) run serially and on the full worker pool, and the
//     resulting speedup (reported as null when only one core is available,
//     where a "speedup" would just measure scheduling noise);
//   - topo, algroute: fabric construction and routing cost.
//
// Usage:
//
//	simbench [-json BENCH_sim.json] [-iters N] [-workers W]
//	         [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"gmsim/internal/cluster"
	"gmsim/internal/core"
	"gmsim/internal/experiments"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/runner"
	"gmsim/internal/sim"
	"gmsim/internal/topo"
	"gmsim/internal/trace"
)

// Report is the schema of BENCH_sim.json.
type Report struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Engine      struct {
		NsPerEvent       float64 `json:"ns_per_event"`
		EventsPerSec     float64 `json:"events_per_sec"`
		Events           int64   `json:"events"`
		NsPerSchedulePop float64 `json:"ns_per_schedule_pop_depth256"`
		NsPerCancel      float64 `json:"ns_per_cancel_depth256"`
		// Traced: the same workload with the full-stack trace recorder
		// attached (spans + fabric events). Simulated time is bit-identical
		// (the overhead-guard test pins that); this tracks the wall-clock
		// cost of recording.
		NsPerEventTraced float64 `json:"ns_per_event_traced"`
		TracedSpans      int     `json:"traced_spans"`
	} `json:"engine"`
	Figures struct {
		Workers   int     `json:"workers"`
		SerialSec float64 `json:"serial_sec"`
		// ParallelSec and Speedup are null when GOMAXPROCS == 1: with one
		// core the "parallel" run measures goroutine scheduling overhead,
		// not speedup, and recording a ~1.0 figure misleads readers into
		// thinking parallelism was exercised.
		ParallelSec *float64 `json:"parallel_sec"`
		Speedup     *float64 `json:"speedup"`
	} `json:"figures"`
	Topo struct {
		Nodes        int     `json:"nodes"`
		Switches     int     `json:"switches"`
		Diameter     int     `json:"diameter"`
		BuildMs      float64 `json:"build_ms"`
		RouteTableMs float64 `json:"route_table_ms"`
		RoutesPerSec float64 `json:"routes_per_sec"`
	} `json:"topo"`
	// AlgRoute benchmarks algebraic source routing at 8192 nodes against
	// the BFS fallback, on the route set a tuned GB barrier actually
	// materializes (every parent<->child pair of the tree). BFS pays one
	// full per-source graph traversal for each of the n distinct sources
	// in that set; the algebraic path pays O(1) per route. The speedup is
	// the CI-enforced O(1) claim (cmd/benchgate holds it above 50x).
	AlgRoute struct {
		Nodes    int `json:"nodes"`
		Radix    int `json:"radix"`
		TunedDim int `json:"tuned_gb_dim"`
		// BuildMs is the wiring-plan construction time (no routes).
		BuildMs float64 `json:"build_ms"`
		// NsPerRouteAlg is the cold per-route cost of the algebraic path,
		// memoization included.
		NsPerRouteAlg float64 `json:"ns_per_route_alg"`
		// BFSRowMs is one per-source BFS pass over the same fabric
		// (mean over sampled sources).
		BFSRowMs float64 `json:"bfs_row_ms"`
		// RouteSetRoutes is the barrier's route count: 2(n-1) ordered
		// parent<->child pairs.
		RouteSetRoutes int     `json:"route_set_routes"`
		AlgSetMs       float64 `json:"alg_set_ms"`
		// BFSSetMsEst extrapolates the BFS cost of the same set: n
		// distinct sources x one row pass each.
		BFSSetMsEst float64 `json:"bfs_set_ms_est"`
		Speedup     float64 `json:"speedup"`
	} `json:"algroute"`
}

func main() {
	jsonPath := flag.String("json", "BENCH_sim.json", "output path ('' to skip writing)")
	iters := flag.Int("iters", 60, "timed barrier iterations per measurement")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool size for the parallel figures run")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the measurements to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			os.Exit(1)
		}
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "simbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "simbench:", err)
			}
		}()
	}

	var r Report
	r.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	r.GoVersion = runtime.Version()
	r.GOMAXPROCS = runtime.GOMAXPROCS(0)

	// Engine throughput on a real workload: one 16-node NIC-PE barrier
	// simulation, all events counted, single-threaded.
	events, wall := barrierEngineRun(*iters, false)
	r.Engine.Events = events
	r.Engine.NsPerEvent = float64(wall.Nanoseconds()) / float64(events)
	r.Engine.EventsPerSec = float64(events) / wall.Seconds()
	r.Engine.NsPerSchedulePop = schedulePopNs(256)
	r.Engine.NsPerCancel = cancelNs(256)

	// The same workload, fully traced.
	tracedEvents, tracedWall := barrierEngineRun(*iters, true)
	r.Engine.NsPerEventTraced = float64(tracedWall.Nanoseconds()) / float64(tracedEvents)
	r.Engine.TracedSpans = lastTracedSpans

	// Figure workload serial vs parallel. On a single-core host the
	// parallel run cannot speed anything up — record the cores and leave
	// the speedup null rather than reporting scheduler noise as ~1.0x.
	r.Figures.Workers = *workers
	figures := func() {
		experiments.Figure5a(*iters)
		experiments.ScaleSweep([]int{2, 4, 8, 16, 32}, *iters)
	}
	runner.SetDefault(1)
	t0 := time.Now()
	figures()
	r.Figures.SerialSec = time.Since(t0).Seconds()
	if r.GOMAXPROCS > 1 && *workers > 1 {
		runner.SetDefault(*workers)
		t0 = time.Now()
		figures()
		par := time.Since(t0).Seconds()
		sp := r.Figures.SerialSec / par
		r.Figures.ParallelSec, r.Figures.Speedup = &par, &sp
	}

	// Topology construction and routing cost: the 1024-node radix-16
	// fat-tree, built from scratch and fully routed (algebraically since
	// the algroute change; the metric tracks whatever Build wires in).
	topoBench(&r)

	// Algebraic routing vs the BFS fallback at 8192 nodes.
	algRouteBench(&r)

	fmt.Printf("engine: %.1f ns/event (%.0f events/sec over %d events)\n",
		r.Engine.NsPerEvent, r.Engine.EventsPerSec, r.Engine.Events)
	fmt.Printf("traced: %.1f ns/event with the full-stack recorder attached (%d spans, %+.1f%%)\n",
		r.Engine.NsPerEventTraced, r.Engine.TracedSpans,
		100*(r.Engine.NsPerEventTraced-r.Engine.NsPerEvent)/r.Engine.NsPerEvent)
	fmt.Printf("queue:  %.1f ns/schedule+pop, %.1f ns/cancel (depth 256)\n",
		r.Engine.NsPerSchedulePop, r.Engine.NsPerCancel)
	if r.Figures.Speedup != nil {
		fmt.Printf("figures: serial %.2fs, parallel %.2fs on %d workers (%.2fx)\n",
			r.Figures.SerialSec, *r.Figures.ParallelSec, r.Figures.Workers, *r.Figures.Speedup)
	} else {
		fmt.Printf("figures: serial %.2fs (GOMAXPROCS=%d; parallel speedup not measurable)\n",
			r.Figures.SerialSec, r.GOMAXPROCS)
	}
	fmt.Printf("topo:   %d-node clos3 (%d switches, diameter %d): build %.2fms, route table %.2fms (%.0f routes/sec)\n",
		r.Topo.Nodes, r.Topo.Switches, r.Topo.Diameter,
		r.Topo.BuildMs, r.Topo.RouteTableMs, r.Topo.RoutesPerSec)
	fmt.Printf("algroute: %d-node clos3 radix %d (GB dim %d): %.0f ns/route algebraic, BFS row %.2fms; barrier route set (%d routes) %.2fms vs %.0fms BFS — %.0fx\n",
		r.AlgRoute.Nodes, r.AlgRoute.Radix, r.AlgRoute.TunedDim,
		r.AlgRoute.NsPerRouteAlg, r.AlgRoute.BFSRowMs, r.AlgRoute.RouteSetRoutes,
		r.AlgRoute.AlgSetMs, r.AlgRoute.BFSSetMsEst, r.AlgRoute.Speedup)

	if *jsonPath != "" {
		out, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *jsonPath)
	}
}

// topoBench times building and fully routing the largest supported fabric:
// the 1024-node three-level Clos of radix-16 switches. Every barrier
// simulation at that scale pays the build once and the route rows lazily;
// this tracks both costs across PRs.
func topoBench(r *Report) {
	const n = 1024
	spec := topo.Spec{Kind: topo.Clos3, Nodes: n, Radix: 16}
	t0 := time.Now()
	t := topo.MustBuild(spec)
	r.Topo.BuildMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	t0 = time.Now()
	tbl, err := t.RouteTable()
	if err != nil {
		panic(err)
	}
	routeWall := time.Since(t0)
	r.Topo.RouteTableMs = float64(routeWall.Nanoseconds()) / 1e6
	r.Topo.RoutesPerSec = float64(len(tbl)*len(tbl)) / routeWall.Seconds()
	st, err := t.ComputeStats()
	if err != nil {
		panic(err)
	}
	r.Topo.Nodes = n
	r.Topo.Switches = st.Switches
	r.Topo.Diameter = st.Diameter
}

// algRouteBench measures the tentpole claim: building the route set of a
// tuned GB barrier on the 8192-node radix-32 fat-tree, algebraically vs
// by per-source BFS. The algebraic side is timed cold (fresh Topology,
// empty memo); the BFS side is one RoutesFrom per sampled source on the
// same graph, extrapolated to the n distinct sources the set contains.
func algRouteBench(r *Report) {
	const n, radix = 8192, 32
	t0 := time.Now()
	tp := topo.MustBuild(topo.Spec{Kind: topo.Clos3, Nodes: n, Radix: radix})
	r.AlgRoute.BuildMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	dim := experiments.TunedGBDim(cluster.DefaultConfig(n))

	// The barrier's route set: gather (child -> parent) and broadcast
	// (parent -> child) for every tree edge.
	type pair struct{ src, dst int }
	pairs := make([]pair, 0, 2*(n-1))
	for i := 1; i < n; i++ {
		p := (i - 1) / dim
		pairs = append(pairs, pair{i, p}, pair{p, i})
	}
	t0 = time.Now()
	for _, pr := range pairs {
		if _, err := tp.Route(pr.src, pr.dst); err != nil {
			panic(err)
		}
	}
	algWall := time.Since(t0)

	// One BFS row per sampled source (graph pre-built so the first row
	// doesn't absorb graph construction).
	g := tp.Graph()
	const rows = 8
	t0 = time.Now()
	for i := 0; i < rows; i++ {
		if _, err := g.RoutesFrom(topo.NICVertex(i * (n / rows))); err != nil {
			panic(err)
		}
	}
	bfsRow := time.Since(t0).Seconds() * 1000 / rows

	r.AlgRoute.Nodes = n
	r.AlgRoute.Radix = radix
	r.AlgRoute.TunedDim = dim
	r.AlgRoute.NsPerRouteAlg = float64(algWall.Nanoseconds()) / float64(len(pairs))
	r.AlgRoute.BFSRowMs = bfsRow
	r.AlgRoute.RouteSetRoutes = len(pairs)
	r.AlgRoute.AlgSetMs = float64(algWall.Nanoseconds()) / 1e6
	r.AlgRoute.BFSSetMsEst = bfsRow * float64(n)
	r.AlgRoute.Speedup = r.AlgRoute.BFSSetMsEst / r.AlgRoute.AlgSetMs
}

// lastTracedSpans records the span count of the most recent traced
// barrierEngineRun, for the report.
var lastTracedSpans int

// barrierEngineRun runs a 16-node NIC-PE barrier workload and returns the
// number of simulator events executed and the wall time spent executing
// them. With traced set, the full-stack recorder is attached for the whole
// run — same simulated schedule, extra bookkeeping per event.
func barrierEngineRun(iters int, traced bool) (int64, time.Duration) {
	wall, cl, rec := barrierRun(cluster.DefaultConfig(16), iters+5, traced)
	if traced {
		lastTracedSpans = rec.Phases().Len()
	}
	return cl.Sim().Executed(), wall
}

// barrierRun runs iters NIC-PE barriers on every rank of cfg through the
// experiments harness's session tier and returns the wall time of the
// drain alone (cluster construction excluded) plus the drained cluster,
// whose event and window counters are what this tool reports. With traced
// set the full-stack recorder is attached for the whole run and returned.
func barrierRun(cfg cluster.Config, iters int, traced bool) (time.Duration, *cluster.Cluster, *trace.Recorder) {
	s, err := experiments.NewSession(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	defer s.Close()
	var rec *trace.Recorder
	if traced {
		rec = trace.Attach(s.Cluster)
	}
	g := core.UniformGroup(cfg.Nodes, 2)
	s.SpawnAll(func(p *host.Process, comm *core.Comm) error {
		for i := 0; i < iters; i++ {
			if err := comm.Barrier(p, mcp.PE, g, p.Rank(), 0); err != nil {
				return err
			}
		}
		return nil
	})
	t0 := time.Now()
	err = s.Run()
	wall := time.Since(t0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	return wall, s.Cluster, rec
}

// schedulePopNs measures one schedule+pop pair at a steady queue depth.
func schedulePopNs(depth int) float64 {
	const ops = 2_000_000
	s := sim.New()
	rng := rand.New(rand.NewSource(1))
	remaining := ops
	var fn func()
	fn = func() {
		if remaining <= 0 {
			return
		}
		remaining--
		s.After(sim.Time(rng.Intn(1000)+1), fn)
	}
	for i := 0; i < depth; i++ {
		s.After(sim.Time(rng.Intn(1000)+1), fn)
	}
	t0 := time.Now()
	s.Run()
	return float64(time.Since(t0).Nanoseconds()) / float64(ops+depth)
}

// cancelNs measures one Cancel against a queue of the given depth.
func cancelNs(depth int) float64 {
	const batches = 5000
	s := sim.New()
	rng := rand.New(rand.NewSource(2))
	ids := make([]sim.EventID, 0, depth)
	var total time.Duration
	for b := 0; b < batches; b++ {
		ids = ids[:0]
		for j := 0; j < depth; j++ {
			ids = append(ids, s.After(sim.Time(rng.Intn(1000)+1), func() {}))
		}
		rng.Shuffle(len(ids), func(x, y int) { ids[x], ids[y] = ids[y], ids[x] })
		t0 := time.Now()
		for _, id := range ids {
			s.Cancel(id)
		}
		total += time.Since(t0)
	}
	return float64(total.Nanoseconds()) / float64(batches*depth)
}
