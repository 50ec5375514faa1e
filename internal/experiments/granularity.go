package experiments

import (
	"math/rand"

	"gmsim/internal/cluster"
	"gmsim/internal/core"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/runner"
	"gmsim/internal/sim"
)

// Experiment E12 (extension): the paper's opening claim quantified.
// "If the barrier latency is high, then the granularity must also be high.
// With a lower latency barrier operation finer-grained computation can be
// supported" (Section 1). A BSP workload iterates compute-then-barrier;
// parallel efficiency = compute / (compute + synchronization). The sweep
// reports, per barrier implementation, the efficiency at each grain and
// the break-even grain where efficiency reaches 50%.

// GranPoint is one (grain, efficiency) sample for both barrier types.
type GranPoint struct {
	GrainMicros       float64
	NICEff, HostEff   float64
	NICIter, HostIter float64 // mean iteration time, µs
}

// GranularitySweep runs the BSP loop at each compute grain, fanning the
// independent NIC/host measurements out over the worker pool. imbalance
// adds a deterministic per-rank-per-iteration jitter of up to the given
// fraction of the grain (stragglers make barriers more expensive).
func GranularitySweep(n int, grainsMicros []float64, imbalance float64, iters int) []GranPoint {
	type bspJob struct {
		grain float64
		nic   bool
	}
	jobs := make([]bspJob, 0, 2*len(grainsMicros))
	for _, grain := range grainsMicros {
		jobs = append(jobs, bspJob{grain, true}, bspJob{grain, false})
	}
	iterTimes := runner.Map(0, jobs, func(j bspJob) float64 {
		return measureBSP(n, j.grain, imbalance, j.nic, iters)
	})
	out := make([]GranPoint, 0, len(grainsMicros))
	for i, grain := range grainsMicros {
		nicIter := iterTimes[2*i]
		hostIter := iterTimes[2*i+1]
		out = append(out, GranPoint{
			GrainMicros: grain,
			NICEff:      grain / nicIter,
			HostEff:     grain / hostIter,
			NICIter:     nicIter,
			HostIter:    hostIter,
		})
	}
	return out
}

// BreakEvenGrain returns the smallest swept grain whose efficiency is at
// least the threshold, or -1 if none.
func BreakEvenGrain(points []GranPoint, nic bool, threshold float64) float64 {
	for _, p := range points {
		eff := p.HostEff
		if nic {
			eff = p.NICEff
		}
		if eff >= threshold {
			return p.GrainMicros
		}
	}
	return -1
}

// measureBSP returns the mean iteration time (µs) of compute+barrier.
func measureBSP(n int, grainMicros, imbalance float64, nicBarrier bool, iters int) float64 {
	const warmup = 3
	s := must(NewSession(cluster.DefaultConfig(n)))
	defer s.Close()
	g := core.UniformGroup(n, 2)
	// Deterministic jitter schedule shared by construction (seeded).
	rng := rand.New(rand.NewSource(12345))
	jitter := make([][]float64, n)
	for r := range jitter {
		jitter[r] = make([]float64, warmup+iters)
		for i := range jitter[r] {
			jitter[r][i] = rng.Float64() * imbalance * grainMicros
		}
	}
	w := must(s.timed(warmup, iters, nil, func(p *host.Process, comm *core.Comm) (func(int) error, error) {
		rank := p.Rank()
		return func(i int) error {
			p.Compute(sim.FromMicros(grainMicros + jitter[rank][i]))
			if nicBarrier {
				return comm.Barrier(p, mcp.PE, g, rank, 0)
			}
			return comm.HostBarrierPE(p, g, rank)
		}, nil
	}))
	return w.meanMicros(iters)
}
