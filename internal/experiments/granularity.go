package experiments

import (
	"gmsim/internal/cluster"
	"gmsim/internal/mcp"
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

// GranularitySweep runs the BSP loop (a PE barrier after each grain of
// compute) at each grain, fanning the independent NIC/host measurements out
// over the worker pool. imbalance adds a deterministic per-rank-per-iteration
// jitter of up to the given fraction of the grain (stragglers make barriers
// more expensive).
func GranularitySweep(n int, grainsMicros []float64, imbalance float64, iters int) ([]GranPoint, error) {
	specs := make([]Spec, 0, 2*len(grainsMicros))
	for _, grain := range grainsMicros {
		for _, level := range []Level{NICLevel, HostLevel} {
			specs = append(specs, Spec{
				Cluster: cluster.DefaultConfig(n), Level: level, Op: BSP, Alg: mcp.PE,
				GrainMicros: grain, Imbalance: imbalance, Warmup: 3, Iters: iters,
			})
		}
	}
	results, err := RunAll(specs)
	if err != nil {
		return nil, err
	}
	out := make([]GranPoint, 0, len(grainsMicros))
	for i, grain := range grainsMicros {
		nicIter := results[2*i].MeanMicros
		hostIter := results[2*i+1].MeanMicros
		out = append(out, GranPoint{
			GrainMicros: grain,
			NICEff:      grain / nicIter,
			HostEff:     grain / hostIter,
			NICIter:     nicIter,
			HostIter:    hostIter,
		})
	}
	return out, nil
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
