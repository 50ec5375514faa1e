package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gmsim/internal/cluster"
	"gmsim/internal/experiments"
	"gmsim/internal/model"
	"gmsim/internal/phase"
	"gmsim/internal/runner"
	"gmsim/internal/service"
	"gmsim/internal/sim"
	"gmsim/internal/topo"
)

// prober runs the per-layer probes of a traced run. Every probe is timed
// from here, around public calls into one layer; host times are
// calibrated against the reference kernel like op_cal_ms, counts are
// exact.
type prober struct {
	tr   *tracer
	root int // the span every probe span hangs under
	m    machine
	out  []metric
	err  error
}

func (p *prober) add(name string, v float64) {
	p.out = append(p.out, newMetric(name, v))
}

// fail keeps the first error of a probe; it fails the traced run.
func (p *prober) fail(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

// read takes a reading of the machine.
func (p *prober) read() reading {
	r, err := p.m.read(3)
	p.fail(err)
	return r
}

// calibrated runs fn between two readings under a span and returns, in
// calibrated milliseconds, the duration fn says counts. kernelShare blends
// the loopback kernel in, as for the workload's ops.
func (p *prober) calibrated(name string, kernelShare float64, fn func() time.Duration) float64 {
	before := p.read()
	sp := p.tr.begin("probe."+name, p.root, 0)
	d := fn()
	p.tr.end(sp)
	return calibrate(d.Seconds()*1e3, before, p.read(), kernelShare)
}

// timed is calibrated for a user-space probe that counts from start to
// finish.
func (p *prober) timed(name string, fn func()) float64 {
	return p.calibrated(name, 0, func() time.Duration {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	})
}

// timedMedian is the median calibrated duration of reps runs of fn.
func (p *prober) timedMedian(name string, reps int, fn func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = p.timed(name, fn)
	}
	return median(xs)
}

// runProbes measures every layer. Order matters in one place: the
// topology probes run first, while the process-wide wiring-plan and route
// memos are still cold.
func runProbes(tr *tracer) ([]metric, error) {
	loop, err := newLoopback()
	if err != nil {
		return nil, err
	}
	defer loop.close()
	p := &prober{tr: tr, root: tr.begin("probes", 0, 0), m: machine{loop: loop}}
	defer tr.end(p.root)
	if err := p.topoProbes(); err != nil {
		return nil, err
	}
	p.simProbes()
	if err := p.experimentProbes(); err != nil {
		return nil, err
	}
	if err := p.observedProbes(); err != nil {
		return nil, err
	}
	if err := p.serviceProbes(); err != nil {
		return nil, err
	}
	p.parallelProbes()
	return p.out, p.err
}

const clos256Radix = 16

func (p *prober) topoProbes() error {
	spec := topo.Spec{Kind: topo.Clos3, Nodes: 256, Radix: clos256Radix}
	var t *topo.Topology
	var err error
	p.add("topo.build_ms.clos256", p.timed("topo.Build", func() { t, err = topo.Build(spec) }))
	if err != nil {
		return err
	}
	p.add("topo.route_table_ms.clos256", p.timed("topo.RouteTable", func() {
		_, err := t.RouteTable()
		p.fail(err)
	}))

	// Algebraic routing at 8192 nodes, on the route set a dim-4 GB barrier
	// materializes: every parent<->child pair of the tree.
	const n, dim = 8192, 4
	big, err := topo.Build(topo.Spec{Kind: topo.Clos3, Nodes: n, Radix: 32})
	if err != nil {
		return err
	}
	routes := 0
	ms := p.timed("topo.Route", func() {
		for i := 1; i < n; i++ {
			parent := (i - 1) / dim
			for _, pair := range [2][2]int{{i, parent}, {parent, i}} {
				_, err := big.Route(pair[0], pair[1])
				p.fail(err)
				routes++
			}
		}
	})
	p.add("topo.route_ns.clos8192", ms*1e6/float64(routes))

	p.add("model.tuned_dim_us.n8192", 1e3*p.timed("model.TunedGBDim", func() { model.TunedGBDim(n, model.GBCosts43()) }))

	p.add("cluster.new_ms.n16", p.timedMedian("cluster.New", 15, func() { cluster.New(cluster.DefaultConfig(16)) }))
	cfg := experiments.TopoConfig(topo.Clos3, 256, clos256Radix)
	p.add("cluster.new_ms.clos256", p.timedMedian("cluster.New", 3, func() { cluster.New(cfg) }))
	// Allocation is counted around one bare call: readings allocate too.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cluster.New(cfg)
	runtime.ReadMemStats(&m1)
	p.add("cluster.new_alloc_kb.clos256", float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
	return nil
}

func (p *prober) simProbes() {
	// Schedule+pop at a steady queue depth: every popped event schedules
	// a successor at a random offset.
	schedulePop := func(depth int) float64 {
		const ops = 300_000
		s := sim.New()
		rng := rand.New(rand.NewSource(1))
		remaining := ops
		var fn func()
		fn = func() {
			if remaining > 0 {
				remaining--
				s.After(sim.Time(rng.Intn(1000)+1), fn)
			}
		}
		for i := 0; i < depth; i++ {
			s.After(sim.Time(rng.Intn(1000)+1), fn)
		}
		return p.timed("sim.schedule_pop", s.Run) * 1e6 / float64(ops+depth)
	}
	p.add("sim.schedule_pop_ns_d256", schedulePop(256))
	p.add("sim.schedule_pop_ns_d16k", schedulePop(16384))

	// Cancel against a queue of depth 256, in shuffled order.
	{
		const batches, depth = 600, 256
		s := sim.New()
		rng := rand.New(rand.NewSource(2))
		ids := make([]sim.EventID, depth)
		ms := p.calibrated("sim.Cancel", 0, func() time.Duration {
			var cancelling time.Duration
			for b := 0; b < batches; b++ {
				for j := range ids {
					ids[j] = s.After(sim.Time(rng.Intn(1000)+1), func() {})
				}
				rng.Shuffle(depth, func(x, y int) { ids[x], ids[y] = ids[y], ids[x] })
				t0 := time.Now()
				for _, id := range ids {
					s.Cancel(id)
				}
				cancelling += time.Since(t0)
			}
			return cancelling
		})
		p.add("sim.cancel_ns_d256", ms*1e6/float64(batches*depth))
	}

	// Two processes alternating Sleep: every Sleep is an event plus two
	// goroutine handoffs (process -> loop -> other process).
	{
		const sleeps = 40_000
		s := sim.New()
		for i := 0; i < 2; i++ {
			s.Spawn("sleeper", func(pr *sim.Proc) {
				for k := 0; k < sleeps; k++ {
					pr.Sleep(1)
				}
			})
		}
		p.add("sim.proc_handoff_ns", p.timed("sim.Proc.Sleep", s.Run)*1e6/(2*sleeps))
	}

	// One process woken by a signal fired from the event loop.
	{
		const wakes = 40_000
		s := sim.New()
		sig := s.NewSignal()
		s.Spawn("waiter", func(pr *sim.Proc) {
			for k := 0; k < wakes; k++ {
				pr.Wait(sig)
			}
		})
		left := wakes
		var fire func()
		fire = func() {
			sig.Fire()
			if left--; left > 0 {
				s.After(1, fire)
			}
		}
		s.After(1, fire)
		p.add("sim.signal_wake_ns", p.timed("sim.Signal.Fire", s.Run)*1e6/wakes)
	}

	{
		const procs = 4000
		s := sim.New()
		ms := p.timed("sim.Spawn", func() {
			for i := 0; i < procs; i++ {
				s.Spawn("p", func(*sim.Proc) {})
			}
			s.Run()
		})
		p.add("sim.proc_spawn_us", ms*1e3/procs)
	}
}

// experimentProbes fits, per cell, a line through the calibrated host time
// of MeasureBarrier at two or three iteration counts: the intercept is what it
// costs to build the cluster, the slope what one more simulated barrier
// costs on the host — the ROADMAP's "host-CPU cost of one simulated
// barrier".
func (p *prober) experimentProbes() error {
	type lineCell struct {
		name   string
		spec   string
		iters  []int
		reps   int
		result experiments.Result
	}
	cells := []*lineCell{
		{name: "nic16_pe", spec: `{"nodes":16,"level":"nic","alg":"pe"}`, iters: []int{10, 100, 400}, reps: 3},
		{name: "nic16_gb", spec: `{"nodes":16,"level":"nic","alg":"gb","dim":2}`, iters: []int{10, 100, 400}, reps: 3},
		{name: "host16_pe", spec: `{"nodes":16,"level":"host","alg":"pe"}`, iters: []int{10, 100, 400}, reps: 3},
		{name: "host16_gb", spec: `{"nodes":16,"level":"host","alg":"gb","dim":2}`, iters: []int{10, 100, 400}, reps: 3},
		{name: "clos256_pe", spec: `{"topo":"clos3","radix":16,"nodes":256,"alg":"pe"}`, iters: []int{5, 160}, reps: 3},
		{name: "clos256_gb", spec: `{"topo":"clos3","radix":16,"nodes":256,"alg":"gb","dim":4,"topo_aware":true}`, iters: []int{5, 160}, reps: 3},
	}
	intercepts := make(map[string]float64)
	for _, c := range cells {
		var xs, ys []float64
		for _, iters := range c.iters {
			s, err := canonical(c.spec)
			if err != nil {
				return fmt.Errorf("probe %s: %w", c.name, err)
			}
			s.Iters = iters
			es, err := s.Experiment()
			if err != nil {
				return fmt.Errorf("probe %s: %w", c.name, err)
			}
			ms := p.timedMedian("experiments.MeasureBarrier."+c.name, c.reps, func() { c.result = experiments.MeasureBarrier(es) })
			xs, ys = append(xs, float64(iters+es.Warmup)), append(ys, ms)
		}
		intercept, slope := fitLine(xs, ys)
		intercepts[c.name] = intercept
		p.add("experiments.barrier_host_us."+c.name, slope*1e3)
	}
	p.add("experiments.build_ms.n16", intercepts["nic16_pe"])
	p.add("experiments.build_ms.clos256", intercepts["clos256_pe"])

	// Accuracy against the paper's published numbers; a simulator-only
	// change must not move these.
	paper := experiments.Paper()
	nicPE, hostPE := cells[0].result.MeanMicros, cells[2].result.MeanMicros
	p.add("experiments.paper_err_pct.nic_pe16_l43", 100*(nicPE-paper.NICPE16L43)/paper.NICPE16L43)
	p.add("experiments.paper_err_pct.factor_pe16", 100*(hostPE/nicPE-paper.FactorPE16)/paper.FactorPE16)
	return nil
}

// observedProbes reads the simulated per-barrier work of the pe_l43 cell
// off the cluster's counters and the Section 2.2 decomposition, and times
// the recorder against an unobserved run of the service's cold spec.
func (p *prober) observedProbes() error {
	s, err := canonical(nic16Cells[0].spec)
	if err != nil {
		return err
	}
	es, err := s.Experiment()
	if err != nil {
		return err
	}
	obs := experiments.MeasureBarrierObserved(es)
	rounds := float64(es.Warmup + es.Iters)
	m := obs.Metrics
	p.add("mcp.fw_tasks_per_barrier", float64(m.Get("fw.tasks"))/rounds)
	p.add("lanai.fw_busy_us_per_barrier", float64(m.Get("fw.busy_ns"))/1e3/rounds)
	p.add("lanai.sdma_per_barrier", float64(m.Get("sdma.transfers"))/rounds)
	p.add("lanai.rdma_per_barrier", float64(m.Get("rdma.transfers"))/rounds)
	p.add("network.packets_per_barrier", float64(m.Get("fabric.delivered"))/rounds)
	timed := float64(es.Iters)
	for _, ph := range []phase.Phase{phase.HostPost, phase.HostDone, phase.NICProc, phase.DMA, phase.Wire} {
		p.add("phase.crit_us."+ph.String(), obs.Decomp.Critical[ph].Micros()/timed)
	}
	p.add("phase.crit_us.Idle", obs.Decomp.Idle().Micros()/timed)

	cold, err := canonical(string(svcSpec(1)))
	if err != nil {
		return err
	}
	ces, err := cold.Experiment()
	if err != nil {
		return err
	}
	var plain, observed []float64
	var o experiments.Observed
	for i := 0; i < 7; i++ {
		plain = append(plain, p.timed("experiments.MeasureBarrier.svc_cold", func() { experiments.MeasureBarrier(ces) }))
		observed = append(observed, p.timed("experiments.MeasureBarrierObserved.svc_cold", func() { o = experiments.MeasureBarrierObserved(ces) }))
	}
	p.add("trace.observed_overhead_frac", median(observed)/median(plain)-1)
	p.add("trace.spans_per_barrier", float64(o.Rec.Phases().Len())/float64(ces.Iters))
	p.add("mcp.retrans_per_op.svc_cold", float64(o.Retrans))
	p.add("trace.decompose_ms", p.timedMedian("trace.Decompose", 5, func() { o.Rec.Decompose(0, o.Start, o.End) }))
	var buf bytes.Buffer
	var werr error
	p.add("trace.chrome_ms", p.timedMedian("trace.WriteChrome", 5, func() {
		buf.Reset()
		if err := o.Rec.WriteChrome(&buf); err != nil {
			werr = err
		}
	}))
	p.add("trace.chrome_kb", float64(buf.Len())/1024)
	return werr
}

// serviceProbes times the service's parts standalone (store, journal and
// cache in a scratch directory) and then whole requests against a live
// server, each request timed on its own.
func (p *prober) serviceProbes() error {
	body := svcSpec(2)
	p.add("service.spec.canon_hash_us", 1e3/200*p.timed("service.Spec.Hash", func() {
		for i := 0; i < 200; i++ {
			// What the submit handler does before it can look anything up.
			c, err := canonical(string(body))
			p.fail(err)
			_, err = c.Hash()
			p.fail(err)
		}
	}))

	// Distinct specs with identical work, executed directly to have real
	// entries for the store and cache probes.
	const n = 8
	hashes := make([]string, n)
	entries := make([]service.Entry, n)
	specs := make([]service.Spec, n)
	for i := 0; i < n; i++ {
		s, err := canonical(string(svcSpec(100 + int64(i))))
		if err != nil {
			return err
		}
		out, err := service.Execute(s)
		if err != nil {
			return err
		}
		res, err := json.Marshal(out.Result)
		if err != nil {
			return err
		}
		specs[i], hashes[i], entries[i] = s, out.Result.Hash, service.Entry{Result: res, Trace: out.Trace}
	}

	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(stateRoot, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := service.OpenStore(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	var putMs, getMs []float64
	for i := 0; i < n; i++ {
		var perr error
		putMs = append(putMs, p.timed("service.Store.Put", func() { perr = st.Put(hashes[i], entries[i]) }))
		if perr != nil {
			return perr
		}
	}
	for r := 0; r < 3; r++ {
		for i := 0; i < n; i++ {
			ok := false
			getMs = append(getMs, p.timed("service.Store.Get", func() { _, ok = st.Get(hashes[i]) }))
			if !ok {
				return fmt.Errorf("store probe: %s not served", hashes[i])
			}
		}
	}
	p.add("service.store.put_ms", median(putMs))
	p.add("service.store.get_us", median(getMs)*1e3)

	jr, _, err := service.OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return err
	}
	const jobs = 40
	var jerr error
	acceptMs := p.timed("service.Journal.Accept", func() {
		for i := 0; i < jobs; i++ {
			if err := jr.Accept(service.PendingJob{ID: fmt.Sprintf("j%06d-probe", i), Key: "bench", Hash: hashes[i%n], Spec: specs[i%n]}); err != nil {
				jerr = err
			}
		}
	})
	doneMs := p.timed("service.Journal.Done", func() {
		for i := 0; i < jobs; i++ {
			if err := jr.Done(fmt.Sprintf("j%06d-probe", i)); err != nil {
				jerr = err
			}
		}
	})
	if err := jr.Close(); err != nil {
		return err
	}
	if jerr != nil {
		return jerr
	}
	p.add("service.journal.accept_us", acceptMs*1e3/jobs)
	p.add("service.journal.done_us", doneMs*1e3/jobs)

	cache := service.NewCache(int64(n/2) << 20)
	const gets, puts = 200_000, 20_000
	cache.Put(hashes[0], entries[0])
	p.add("service.cache.get_ns", 1e6/gets*p.timed("service.Cache.Get", func() {
		for i := 0; i < gets; i++ {
			cache.Get(hashes[0])
		}
	}))
	// Cycling n entries of ~0.9 MB through an n/2 MB budget: every Put
	// evicts.
	p.add("service.cache.put_us", 1e3/puts*p.timed("service.Cache.Put", func() {
		for i := 0; i < puts; i++ {
			cache.Put(hashes[i%n], entries[i%n])
		}
	}))

	return p.httpProbes()
}

// httpProbes times single requests per tier against a live server, and
// direct Execute calls in the same manner, so that cold HTTP minus direct
// execution is a difference of like with like.
func (p *prober) httpProbes() error {
	e, err := newSvcEnv(7)
	if err != nil {
		return err
	}
	defer e.close()
	if err := e.prefill(); err != nil {
		return err
	}
	// series times count calls of do one at a time, raw; one pair of
	// readings around the whole series calibrates them all, blended as
	// the workload's op of that tier is.
	series := func(name string, share float64, count int, do func(i int) error) ([]float64, error) {
		walls := make([]float64, 0, count)
		var perr error
		before := p.read()
		sp := p.tr.begin("probe.service."+name, p.root, 0)
		for i := 0; i < count && perr == nil; i++ {
			t0 := time.Now()
			perr = do(i)
			walls = append(walls, time.Since(t0).Seconds()*1e3)
		}
		p.tr.end(sp)
		after := p.read()
		for i := range walls {
			walls[i] = calibrate(walls[i], before, after, share)
		}
		return walls, perr
	}
	post := func(body func(i int) []byte) func(int) error {
		return func(i int) error {
			_, err := e.post(body(i))
			return err
		}
	}

	direct, err := series("Execute", svcColdShare, 25, func(i int) error {
		s, err := canonical(string(svcSpec(e.coldBase - 1 - int64(i))))
		if err != nil {
			return err
		}
		_, err = service.Execute(s)
		return err
	})
	if err != nil {
		return err
	}

	rss0, err := currentRSSKB()
	if err != nil {
		return err
	}
	const colds = 100
	cold, err := series("http.cold", svcColdShare, colds, post(func(i int) []byte { return svcSpec(e.coldBase + int64(i)) }))
	if err != nil {
		return err
	}
	rss1, err := currentRSSKB()
	if err != nil {
		return err
	}
	disk, err := series("http.disk", svcDiskShare, 1000, post(func(i int) []byte { return e.diskBody[i%len(e.diskBody)] }))
	if err != nil {
		return err
	}
	ram, err := series("http.ram", svcRAMShare, 2000, post(func(int) []byte { return e.ramBody }))
	if err != nil {
		return err
	}
	p.add("service.http.cold_ms_p50", median(cold))
	p.add("service.http.cold_ms_p90", percentile(cold, 90))
	p.add("service.http.disk_ms_p50", median(disk))
	p.add("service.http.disk_ms_p99", percentile(disk, 99))
	p.add("service.http.ram_us_p50", median(ram)*1e3)
	p.add("service.http.ram_us_p99", percentile(ram, 99)*1e3)
	p.add("service.execute_ms", median(direct))
	p.add("service.http.overhead_ms", median(cold)-median(direct))
	p.add("service.rss_kb_per_cold_op", (rss1-rss0)/colds)
	return nil
}

// parallelProbes are diagnostics of the two parallel axes, run at
// GOMAXPROCS=2 and reported as wall-time ratios. On the sandbox's two
// shared cores no end-to-end metric can show a parallel speed-up; these
// only show whether the axis still exists and what it costs. An axis the
// spec codec no longer accepts reports 0 ("absent").
func (p *prober) parallelProbes() {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer runner.SetDefault(1)

	// The Figure 5(a) job list — PE and every GB dimension at both levels
	// for 2..16 nodes — built from wire-form specs.
	var jobs []experiments.Spec
	for _, n := range []int{2, 4, 8, 16} {
		for _, level := range []string{"nic", "host"} {
			specs := []string{fmt.Sprintf(`{"nodes":%d,"level":%q,"alg":"pe","iters":10}`, n, level)}
			for dim := 1; dim < n; dim++ {
				specs = append(specs, fmt.Sprintf(`{"nodes":%d,"level":%q,"alg":"gb","dim":%d,"iters":10}`, n, level, dim))
			}
			for _, js := range specs {
				if es, err := experimentSpec(js); err == nil {
					jobs = append(jobs, es)
				}
			}
		}
	}
	fig := func(workers int) float64 {
		runner.SetDefault(workers)
		return p.timed("experiments.MeasureBarriers.fig5a", func() { experiments.MeasureBarriers(jobs) })
	}
	g1 := fig(1)
	p.add("runner.fig5a_g2_over_g1", fig(2)/g1)

	run := func(partitions int) float64 {
		s, err := canonical(fmt.Sprintf(`{"topo":"clos3","radix":16,"nodes":256,"alg":"pe","iters":20,"partitions":%d}`, partitions))
		if err != nil || s.Partitions != partitions {
			return 0
		}
		es, err := s.Experiment()
		if err != nil {
			return 0
		}
		return p.timed("experiments.MeasureBarrier.partitions", func() { experiments.MeasureBarrier(es) })
	}
	serial := run(1)
	ratio := 0.0
	if serial > 0 {
		ratio = run(2) / serial
	}
	p.add("sim.group.p2_over_serial.clos256", ratio)
}
