// Package gmsim's top-level benchmarks regenerate every figure of the
// paper's evaluation (Section 6) plus the ablations called out in
// DESIGN.md. Each benchmark reports simulated microseconds per barrier via
// b.ReportMetric (the quantity the paper plots); wall-clock ns/op measures
// only the simulator itself.
//
// Mapping to the paper:
//
//	BenchmarkFigure5a*  — Figure 5(a): latency vs nodes, LANai 4.3
//	BenchmarkFigure5b*  — Figure 5(b): factor of improvement, LANai 4.3
//	BenchmarkFigure5c*  — Figure 5(c): latency vs nodes, LANai 7.2
//	BenchmarkFigure5d*  — Figure 5(d): factor of improvement, LANai 7.2
//	BenchmarkFigure2Model — Section 2.2 Equations 1-3 vs simulation
//	BenchmarkPingPong   — Section 1's host-based one-way latency claim
//	BenchmarkGBDimensionSweep — Section 6's dimension-sweep methodology
//	BenchmarkLayerOverhead — Equation 3's added-layer prediction
//	BenchmarkAblation*  — design-choice ablations (DESIGN.md)
package gmsim

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gmsim/internal/cluster"
	"gmsim/internal/experiments"
	"gmsim/internal/mcp"
	"gmsim/internal/model"
	"gmsim/internal/service"
	"gmsim/internal/sim"
	"gmsim/internal/topo"
)

const benchIters = 40 // timed barriers per simulated measurement

// optimalLatency is OptimalDim's latency, failing b on an error.
func optimalLatency(b *testing.B, spec experiments.Spec) float64 {
	b.Helper()
	_, lat, err := experiments.OptimalDim(spec)
	if err != nil {
		b.Fatal(err)
	}
	return lat
}

func reportBarrier(b *testing.B, spec experiments.Spec) {
	b.Helper()
	spec.Iters = benchIters
	var mean float64
	for i := 0; i < b.N; i++ {
		mean = experiments.MeasureBarrier(spec).MeanMicros
	}
	b.ReportMetric(mean, "us/barrier")
}

func benchVariants(b *testing.B, mkCfg func(int) cluster.Config, sizes []int) {
	for _, n := range sizes {
		n := n
		cfg := mkCfg(n)
		b.Run(fmt.Sprintf("NIC-PE/nodes=%d", n), func(b *testing.B) {
			reportBarrier(b, experiments.Spec{Cluster: cfg, Level: experiments.NICLevel, Alg: mcp.PE})
		})
		b.Run(fmt.Sprintf("Host-PE/nodes=%d", n), func(b *testing.B) {
			reportBarrier(b, experiments.Spec{Cluster: cfg, Level: experiments.HostLevel, Alg: mcp.PE})
		})
		b.Run(fmt.Sprintf("NIC-GB/nodes=%d", n), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				lat = optimalLatency(b, experiments.Spec{Cluster: cfg, Level: experiments.NICLevel, Alg: mcp.GB, Iters: benchIters})
			}
			b.ReportMetric(lat, "us/barrier")
		})
		b.Run(fmt.Sprintf("Host-GB/nodes=%d", n), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				lat = optimalLatency(b, experiments.Spec{Cluster: cfg, Level: experiments.HostLevel, Alg: mcp.GB, Iters: benchIters})
			}
			b.ReportMetric(lat, "us/barrier")
		})
	}
}

// BenchmarkFigure5aLatency regenerates Figure 5(a): NIC- and host-based
// barrier latency for both algorithms on LANai 4.3 clusters of 2-16 nodes.
func BenchmarkFigure5aLatency(b *testing.B) {
	benchVariants(b, cluster.DefaultConfig, experiments.LANai43Sizes)
}

// BenchmarkFigure5bFactor regenerates Figure 5(b): factor of improvement
// on LANai 4.3 (paper: 1.78 for PE at 16 nodes).
func BenchmarkFigure5bFactor(b *testing.B) {
	for _, n := range experiments.LANai43Sizes {
		n := n
		b.Run(fmt.Sprintf("PE/nodes=%d", n), func(b *testing.B) {
			cfg := cluster.DefaultConfig(n)
			var factor float64
			for i := 0; i < b.N; i++ {
				nic := experiments.MeasureBarrier(experiments.Spec{Cluster: cfg, Level: experiments.NICLevel, Alg: mcp.PE, Iters: benchIters}).MeanMicros
				hst := experiments.MeasureBarrier(experiments.Spec{Cluster: cfg, Level: experiments.HostLevel, Alg: mcp.PE, Iters: benchIters}).MeanMicros
				factor = hst / nic
			}
			b.ReportMetric(factor, "factor")
		})
	}
}

// BenchmarkFigure5cLatency regenerates Figure 5(c): latency on LANai 7.2
// clusters of 2-8 nodes (paper: 49.25 µs NIC-PE at 8 nodes).
func BenchmarkFigure5cLatency(b *testing.B) {
	benchVariants(b, cluster.LANai72Config, experiments.LANai72Sizes)
}

// BenchmarkFigure5dFactor regenerates Figure 5(d): factor of improvement on
// LANai 7.2 (paper: 1.83 for PE at 8 nodes).
func BenchmarkFigure5dFactor(b *testing.B) {
	for _, n := range experiments.LANai72Sizes {
		n := n
		b.Run(fmt.Sprintf("PE/nodes=%d", n), func(b *testing.B) {
			cfg := cluster.LANai72Config(n)
			var factor float64
			for i := 0; i < b.N; i++ {
				nic := experiments.MeasureBarrier(experiments.Spec{Cluster: cfg, Level: experiments.NICLevel, Alg: mcp.PE, Iters: benchIters}).MeanMicros
				hst := experiments.MeasureBarrier(experiments.Spec{Cluster: cfg, Level: experiments.HostLevel, Alg: mcp.PE, Iters: benchIters}).MeanMicros
				factor = hst / nic
			}
			b.ReportMetric(factor, "factor")
		})
	}
}

// BenchmarkFigure2Model evaluates the Section 2.2 analytical model against
// the simulation, reporting the model's prediction error for the NIC-based
// barrier at 8 nodes.
func BenchmarkFigure2Model(b *testing.B) {
	bd := model.PaperEstimate43()
	cfg := cluster.DefaultConfig(8)
	var errPct float64
	for i := 0; i < b.N; i++ {
		simNIC := experiments.MeasureBarrier(experiments.Spec{
			Cluster: cfg, Level: experiments.NICLevel, Alg: mcp.PE, Iters: benchIters,
		}).MeanMicros
		pred := bd.NICBarrier(8)
		errPct = (pred - simNIC) / simNIC * 100
	}
	b.ReportMetric(errPct, "model-error-%")
}

// BenchmarkPingPong measures the host-level one-way small-message latency
// (Section 1: "may be as high as 30µs") on both cards.
func BenchmarkPingPong(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  cluster.Config
	}{
		{"LANai4.3", cluster.DefaultConfig(2)},
		{"LANai7.2", cluster.LANai72Config(2)},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				out, err := experiments.Run(experiments.Spec{Cluster: tc.cfg, Op: experiments.PingPong, Bytes: 8, Iters: benchIters}, false)
				if err != nil {
					b.Fatal(err)
				}
				lat = out.MeanMicros
			}
			b.ReportMetric(lat, "us-one-way")
		})
	}
}

// BenchmarkGBDimensionSweep regenerates the Section 6 methodology: the GB
// latency at every tree dimension for a 16-node LANai 4.3 cluster, reporting
// the best/worst spread.
func BenchmarkGBDimensionSweep(b *testing.B) {
	cfg := cluster.DefaultConfig(16)
	var best, worst float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.GBDimSweep(cfg, experiments.NICLevel, benchIters, false)
		if err != nil {
			b.Fatal(err)
		}
		best, worst = pts[0].Micros, pts[0].Micros
		for _, p := range pts {
			if p.Micros < best {
				best = p.Micros
			}
			if p.Micros > worst {
				worst = p.Micros
			}
		}
	}
	b.ReportMetric(best, "us-best-dim")
	b.ReportMetric(worst, "us-worst-dim")
}

// BenchmarkLayerOverhead regenerates the Equation-3 prediction (experiment
// E8): the factor of improvement as an MPI-like layer adds per-message host
// overhead.
func BenchmarkLayerOverhead(b *testing.B) {
	for _, oh := range []float64{0, 10, 20, 40} {
		oh := oh
		b.Run(fmt.Sprintf("overhead=%.0fus", oh), func(b *testing.B) {
			var factor float64
			for i := 0; i < b.N; i++ {
				pts, err := experiments.LayerOverheadSweep(8, []float64{oh}, benchIters)
				if err != nil {
					b.Fatal(err)
				}
				factor = pts[0].Factor
			}
			b.ReportMetric(factor, "factor")
		})
	}
}

// BenchmarkAblationReliableBarrier measures the cost of the Section 4.4
// reliable-barrier mechanism on a loss-free network: the price of the
// separate ACK traffic and sequence bookkeeping.
func BenchmarkAblationReliableBarrier(b *testing.B) {
	for _, reliable := range []bool{false, true} {
		reliable := reliable
		name := "unreliable"
		if reliable {
			name = "reliable"
		}
		b.Run(name, func(b *testing.B) {
			cfg := cluster.DefaultConfig(8)
			cfg.ReliableBarrier = reliable
			reportBarrier(b, experiments.Spec{Cluster: cfg, Level: experiments.NICLevel, Alg: mcp.PE})
		})
	}
}

// BenchmarkAblationLoopbackFlag measures the Section 3.4 optimization for
// intra-NIC barriers: two ports of one NIC synchronizing via flags instead
// of loopback packets.
func BenchmarkAblationLoopbackFlag(b *testing.B) {
	run := func(b *testing.B, flag bool) {
		var mean float64
		for i := 0; i < b.N; i++ {
			cfg := cluster.DefaultConfig(1)
			cfg.LoopbackFlag = flag
			cl := cluster.New(cfg)
			s := cl.Sim()
			var t0, t1 sim.Time
			done := make([]int, 2)
			post := func(port int) {
				m := cl.MCP(0)
				if err := m.PostBarrierBuffer(port); err != nil {
					b.Fatal(err)
				}
				other := 5 - port // 2 <-> 3
				tok := &mcp.BarrierToken{Alg: mcp.PE, SrcPort: port,
					Peers: []mcp.Endpoint{{Node: 0, Port: other}}}
				if err := m.PostBarrierToken(tok); err != nil {
					b.Fatal(err)
				}
			}
			for _, port := range []int{2, 3} {
				port := port
				if err := cl.MCP(0).OpenPort(port, func(ev mcp.HostEvent) {
					if ev.Kind == mcp.BarrierDoneEvent {
						done[port-2]++
						t1 = s.Now()
					}
				}); err != nil {
					b.Fatal(err)
				}
			}
			const rounds = benchIters
			var kick func(port, left int)
			kick = func(port, left int) {
				if left == 0 {
					return
				}
				post(port)
				want := rounds - left + 1
				var poll func()
				poll = func() {
					if done[port-2] >= want {
						kick(port, left-1)
						return
					}
					s.After(sim.Microsecond, poll)
				}
				s.After(sim.Microsecond, poll)
			}
			t0 = s.Now()
			kick(2, rounds)
			kick(3, rounds)
			s.Run()
			mean = (t1 - t0).Micros() / rounds
		}
		b.ReportMetric(mean, "us/barrier")
	}
	b.Run("packet-loopback", func(b *testing.B) { run(b, false) })
	b.Run("flag-optimized", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationTwoLevelSwitch compares the paper's single-switch
// testbed with a two-switch topology (extra hop on half the routes).
func BenchmarkAblationTwoLevelSwitch(b *testing.B) {
	for _, twoLevel := range []bool{false, true} {
		twoLevel := twoLevel
		name := "single-switch"
		if twoLevel {
			name = "two-level"
		}
		b.Run(name, func(b *testing.B) {
			cfg := cluster.DefaultConfig(16)
			if twoLevel {
				cfg.Topology = &topo.Spec{Kind: topo.TwoSwitch}
			}
			reportBarrier(b, experiments.Spec{Cluster: cfg, Level: experiments.NICLevel, Alg: mcp.PE})
		})
	}
}

// BenchmarkCollectives regenerates the Section 8 future-work comparison
// (experiment E10): NIC-based vs host-based broadcast/reduce/allreduce
// one-shot latency at 8 nodes, optimal tree dimension.
func BenchmarkCollectives(b *testing.B) {
	cfg := cluster.DefaultConfig(8)
	for _, tc := range []struct {
		name  string
		level experiments.Level
		op    experiments.Op
	}{
		{"NIC-bcast", experiments.NICLevel, experiments.Broadcast},
		{"Host-bcast", experiments.HostLevel, experiments.Broadcast},
		{"NIC-reduce", experiments.NICLevel, experiments.Reduce},
		{"Host-reduce", experiments.HostLevel, experiments.Reduce},
		{"NIC-allreduce", experiments.NICLevel, experiments.AllReduce},
		{"Host-allreduce", experiments.HostLevel, experiments.AllReduce},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				lat = optimalLatency(b, experiments.Spec{
					Cluster: cfg, Level: tc.level, Op: tc.op, Elems: 4, Warmup: 3, Iters: benchIters,
				})
			}
			b.ReportMetric(lat, "us/op")
		})
	}
}

// BenchmarkScaleProjection regenerates experiment E11: the factor of
// improvement beyond the paper's 16-node testbed.
func BenchmarkScaleProjection(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		n := n
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			var factor float64
			for i := 0; i < b.N; i++ {
				rows, err := experiments.ScaleSweep([]int{n}, benchIters)
				if err != nil {
					b.Fatal(err)
				}
				factor = rows[0].Factor
			}
			b.ReportMetric(factor, "factor")
		})
	}
}

// BenchmarkMPIBarrier regenerates experiment E8b: MPI_Barrier over the mpi
// layer with each backend — the paper's Equation 3 prediction with a real
// layer (compare the MPI factor against the raw-GM factor).
func BenchmarkMPIBarrier(b *testing.B) {
	for _, n := range []int{8, 16} {
		n := n
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			var row experiments.MPIRow
			for i := 0; i < b.N; i++ {
				rows, err := experiments.MPIBarrierComparison([]int{n}, benchIters)
				if err != nil {
					b.Fatal(err)
				}
				row = rows[0]
			}
			b.ReportMetric(row.Factor, "mpi-factor")
			b.ReportMetric(row.RawFactor, "raw-factor")
		})
	}
}

// BenchmarkSimulatorThroughput measures the DES engine itself: simulated
// barrier operations per wall-clock second (not a paper figure; a sanity
// check that the harness is usable at 100k-barrier scale).
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := cluster.DefaultConfig(16)
	spec := experiments.Spec{Cluster: cfg, Level: experiments.NICLevel, Alg: mcp.PE, Iters: benchIters}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.MeasureBarrier(spec)
	}
	barriers := float64(b.N) * float64(benchIters+5)
	b.ReportMetric(barriers/b.Elapsed().Seconds(), "barriers/sec")
}

// BenchmarkClos256 runs the two cells of the repository benchmark's clos256
// workload (the spec literals are bench/workload.go's clos256Cells), one
// whole measurement per iteration: gb4_build is mostly topology, route and
// cluster construction (pre-posting the receive buffers costs no events),
// pe_steady mostly steady-state barrier events over five-switch routes. It
// is the entry point for profiling the scale path — `make profile` — which
// BenchmarkSimulatorThroughput's 16 nodes on one crossbar do not reach. Each
// cell reports its bytes and heap objects per measurement.
func BenchmarkClos256(b *testing.B) {
	benchCells(b, []struct{ name, spec string }{
		{"gb4_build", `{"topo":"clos3","radix":16,"nodes":256,"alg":"gb","dim":4,"topo_aware":true,"warmup":2,"iters":20}`},
		{"pe_steady", `{"topo":"clos3","radix":16,"nodes":256,"alg":"pe","warmup":5,"iters":100}`},
	})
}

// BenchmarkHost16 runs the four cells of the repository benchmark's host16
// workload (bench/workload.go's host16Cells): the paper's host-based PE and
// GB barriers on 16 nodes, LANai 4.3 and 7.2, one whole measurement per
// iteration. Host-level sends and receives dominate, so it is the benchmark
// that shows the process handoff layer (`make layers`).
func BenchmarkHost16(b *testing.B) {
	benchCells(b, []struct{ name, spec string }{
		{"pe_l43", `{"nodes":16,"nic":"4.3","level":"host","alg":"pe","warmup":5,"iters":200}`},
		{"gb2_l43", `{"nodes":16,"nic":"4.3","level":"host","alg":"gb","dim":2,"warmup":5,"iters":200}`},
		{"pe_l72", `{"nodes":16,"nic":"7.2","level":"host","alg":"pe","warmup":5,"iters":200}`},
		{"gb2_l72", `{"nodes":16,"nic":"7.2","level":"host","alg":"gb","dim":2,"warmup":5,"iters":200}`},
	})
}

// benchCells runs each wire-form spec as a sub-benchmark, one whole
// measurement per iteration, reporting its bytes and heap objects.
func benchCells(b *testing.B, cells []struct{ name, spec string }) {
	for _, c := range cells {
		var wire service.Spec
		if err := json.Unmarshal([]byte(c.spec), &wire); err != nil {
			b.Fatal(err)
		}
		canon, err := wire.Canonicalize()
		if err != nil {
			b.Fatal(err)
		}
		spec, err := canon.Experiment()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var mean float64
			for i := 0; i < b.N; i++ {
				mean = experiments.MeasureBarrier(spec).MeanMicros
			}
			b.ReportMetric(mean, "us/barrier")
		})
	}
}

// BenchmarkSvcCold is one cold simd request without the HTTP front: the
// repository benchmark's svc spec (bench/svc.go's svcSpec) canonicalized,
// executed observed, its result marshalled and the entry written to a store
// on disk, a fresh fault-plan seed per iteration so no iteration finds the
// last one's file. It is the entry point for profiling the request path the
// simulating benchmarks never reach — `make profile-svc`.
func BenchmarkSvcCold(b *testing.B) {
	st, err := service.OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := service.Spec{Nodes: 16, FaultPlan: service.PlanFlap, Seed: int64(1 + i), Warmup: 5, Iters: 10}
		canon, err := spec.Canonicalize()
		if err != nil {
			b.Fatal(err)
		}
		out, err := service.Execute(canon)
		if err != nil {
			b.Fatal(err)
		}
		result, err := json.Marshal(out.Result)
		if err != nil {
			b.Fatal(err)
		}
		if err := st.Put(out.Result.Hash, service.Entry{Result: result, Trace: out.Trace}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSvcHit is a repeated simd request through Server.Handler without
// a socket: the svc benchmark's spec POSTed once cold, then byte-identically
// per iteration, each answered from the RAM tier. Run with -benchmem (`make
// profile-svc`); the objects per op include the test request's and the
// recorder's own.
func BenchmarkSvcHit(b *testing.B) {
	srv, err := service.NewServer(service.Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := srv.Drain(context.Background()); err != nil {
			b.Error(err)
		}
		_ = srv.Close()
	}()
	h := srv.Handler()
	const body = `{"nodes":16,"fault_plan":"flap","seed":1,"warmup":5,"iters":10}`
	submit := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/runs", strings.NewReader(body)))
		return w
	}
	if w := submit(); w.Code != http.StatusOK {
		b.Fatalf("cold submit: %d %s", w.Code, w.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := submit(); w.Header().Get("X-Cache") != "hit" {
			b.Fatalf("repeat: %d, X-Cache %q", w.Code, w.Header().Get("X-Cache"))
		}
	}
}

// BenchmarkObservedRun runs the svc benchmark's cell (bench/svc.go's svcSpec:
// 16 nodes, NIC PE, one link flap, 5 warm-up and 10 timed barriers) through
// experiments.Run plain and observed — the simulation a cold simd request
// pays for, without the export, the store and the HTTP front. Observing is
// passive, so the two execute the same events; run with -benchmem, the
// difference is what recording costs.
func BenchmarkObservedRun(b *testing.B) {
	canon, err := service.Spec{Nodes: 16, FaultPlan: service.PlanFlap, Seed: 1, Warmup: 5, Iters: 10}.Canonicalize()
	if err != nil {
		b.Fatal(err)
	}
	spec, err := canon.Experiment()
	if err != nil {
		b.Fatal(err)
	}
	for _, observe := range []bool{false, true} {
		name := "plain"
		if observe {
			name = "observed"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Run(spec, observe); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
