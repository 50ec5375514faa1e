package model

import (
	"math"
	"sort"
)

// GB auto-tuner: an exact steady-state recurrence for the NIC-based
// gather-and-broadcast barrier, used to pick the tree dimension without
// running the simulator.
//
// NICBarrierGB above prices one isolated barrier along its critical path;
// GBDimSweep measures something subtler — the steady-state period of a
// pipelined barrier loop, where iteration k+1's token parsing overlaps
// iteration k's broadcast tail and the argmin dimension shifts (n = 8
// prefers dim 5 in steady state, dim 3 in isolation). Sweeping the DES to
// find that argmin costs minutes at 8192 nodes; this file replays the
// firmware's per-iteration schedule in closed form instead.
//
// The recurrence tracks, per node and per iteration: the NIC's serial
// execution clock, the host's next barrier-post time, and the busy-until
// time of the one wire that can serialize (the last hop into each NIC,
// shared by every sender targeting it). Phases run in a causal order that
// the simulator provably follows in the zero-fault steady state (a
// parent's token k always precedes its children's gather-k arrivals, and
// broadcast k precedes gather k+1), so evaluating token → gather (leaves
// up, a node's receives in arrival order) → broadcast (root down) visits
// events in the same per-resource order the event queue would. On every
// conformance cell the recurrence reproduces the measured mean to the
// nanosecond (see gbtuner_test.go and the experiments conformance matrix).
type GBSteadyCosts struct {
	// Token is the NIC cost of parsing one barrier token: the firmware
	// charges BarrierToken + GBToken cycles in a single exec.
	Token float64
	// Prep is the NIC cost of preparing and handing off one outgoing
	// gather or broadcast frame (GBPrep + SendXmit, one exec).
	Prep float64
	// Recv is the NIC cost of consuming one received gather/broadcast
	// frame (GBRecv).
	Recv float64
	// Complete is the NIC cost of finishing the barrier before the
	// host-event DMA starts (BarrierComplete).
	Complete float64
	// EvtDMA is the RDMA engine time to push the 16-byte completion event
	// record to host memory (DMA startup + transfer).
	EvtDMA float64
	// HopHead is head-of-frame propagation through one switch stage: link
	// latency plus the switch's cut-through route delay.
	HopHead float64
	// LastHop is the final cable into a NIC: link latency plus the tail
	// of the 16-byte frame behind the head.
	LastHop float64
	// WireSer is the serialization time of one 16-byte frame on a link —
	// the spacing a shared last-hop channel enforces between arrivals.
	WireSer float64
	// Evt2Done is host work from the completion event landing to the
	// barrier call returning (RecvDetect + RecvProcess).
	Evt2Done float64
	// Done2Post is host work from one barrier returning to the next
	// token reaching the NIC (ProvideBufferCost + BarrierPostCost +
	// doorbell latency).
	Done2Post float64
}

// nsFromCycles converts firmware cycles at clockMHz to the simulator's
// integer nanoseconds, mirroring lanai.Cycles' round-half-up.
func nsFromCycles(cycles, clockMHz float64) float64 {
	return math.Floor(cycles*1000/clockMHz + 0.5)
}

// GBCostsAt derives the cost set for a LANai at clockMHz with the default
// firmware, host, link and DMA parameters. Firmware terms scale with the
// clock; wire, DMA and host terms do not.
func GBCostsAt(clockMHz float64) GBSteadyCosts {
	return GBSteadyCosts{
		Token:    nsFromCycles(180+400, clockMHz), // BarrierToken + GBToken
		Prep:     nsFromCycles(320+40, clockMHz),  // GBPrep + SendXmit
		Recv:     nsFromCycles(100, clockMHz),     // GBRecv
		Complete: nsFromCycles(150, clockMHz),     // BarrierComplete
		// 1500 ns DMA startup + 16 B at 132 MB/s.
		EvtDMA: 1500 + math.Floor(16*1000/132),
		// 300 ns link latency + 300 ns cut-through route delay.
		HopHead: 600,
		// 300 ns link latency + 16 B tail at 160 MB/s.
		LastHop: 400,
		WireSer: 100,
		// RecvDetect 1500 + RecvProcess 5000.
		Evt2Done: 6500,
		// ProvideBufferCost 500 + BarrierPostCost 3000 + doorbell 600.
		Done2Post: 4100,
	}
}

// GBCosts43 returns the cost set for the LANai 4.3 at 33 MHz — the
// paper's measured NIC and the simulator's default configuration.
func GBCosts43() GBSteadyCosts { return GBCostsAt(33) }

// GBSteadyState returns the mean steady-state barrier period in
// microseconds for an n-node dimension-dim GB tree on a single crossbar,
// measured at rank 0 over iters iterations after warmup — the same
// statistic MeasureBarrier reports for a GB sweep cell.
func GBSteadyState(n, dim, warmup, iters int, c GBSteadyCosts) float64 {
	if n < 2 {
		return 0
	}
	if dim < 1 {
		dim = 1
	}
	if warmup < 1 {
		warmup = 1
	}
	if iters < 1 {
		iters = 1
	}
	children := make([][]int, n)
	for i := 0; i < n; i++ {
		for ch := dim*i + 1; ch <= dim*i+dim && ch < n; ch++ {
			children[i] = append(children[i], ch)
		}
	}
	var (
		nic      = make([]float64, n) // NIC serial-execution clock
		chanFree = make([]float64, n) // busy-until of the last hop into node i
		post     = make([]float64, n) // when the host's next token reaches the NIC
		done     = make([]float64, n) // when the host's barrier call returns
		depart   = make([]float64, n) // gather-frame handoff time
		bcastDep = make([]float64, n) // broadcast-frame handoff time (set by parent)
		deps     []float64
		t0       float64
	)
	total := warmup + iters
	for k := 0; k < total; k++ {
		// Token: each NIC parses iteration k's barrier token as soon as
		// both the host has posted it and the NIC is free.
		for i := 0; i < n; i++ {
			nic[i] = math.Max(nic[i], post[i]) + c.Token
		}
		// Gather, children before parents. A node's incoming frames share
		// its last-hop channel, so they arrive in depart order with at
		// least WireSer spacing; the NIC consumes each on arrival.
		for i := n - 1; i >= 0; i-- {
			if ch := children[i]; len(ch) > 0 {
				deps = deps[:0]
				for _, chl := range ch {
					deps = append(deps, depart[chl])
				}
				sort.Float64s(deps)
				for _, d := range deps {
					s2 := math.Max(d+c.HopHead, chanFree[i])
					chanFree[i] = s2 + c.WireSer
					nic[i] = math.Max(nic[i], s2+c.LastHop) + c.Recv
				}
			}
			if i != 0 {
				nic[i] += c.Prep
				depart[i] = nic[i]
			}
		}
		// Broadcast, parents before children; then the completion event
		// DMAs up and the host turns the next iteration around.
		for i := 0; i < n; i++ {
			if i != 0 {
				s2 := math.Max(bcastDep[i]+c.HopHead, chanFree[i])
				chanFree[i] = s2 + c.WireSer
				nic[i] = math.Max(nic[i], s2+c.LastHop) + c.Recv
			}
			evt := nic[i] + c.Complete + c.EvtDMA
			done[i] = evt + c.Evt2Done
			t := nic[i] + c.Complete
			for _, chl := range children[i] {
				t += c.Prep
				bcastDep[chl] = t
			}
			nic[i] = t
			post[i] = done[i] + c.Done2Post
		}
		if k == warmup-1 {
			t0 = done[0]
		}
	}
	return (done[0] - t0) / float64(iters) / 1000
}

// TunedGBDimOver returns the dimension from dims minimizing the modeled
// steady-state period, taking the first minimum (ties go to the earliest
// candidate, matching the exhaustive sweep's argmin convention).
func TunedGBDimOver(n, warmup, iters int, c GBSteadyCosts, dims []int) int {
	if n < 2 || len(dims) == 0 {
		return 1
	}
	best, bestT := dims[0], math.Inf(1)
	for _, d := range dims {
		if d < 1 || d > n-1 {
			continue
		}
		if t := GBSteadyState(n, d, warmup, iters, c); t < bestT {
			best, bestT = d, t
		}
	}
	return best
}

// TunedDims is the candidate set TunedGBDim searches: exhaustive to 64
// nodes, then a ladder — the steady-state curve is unimodal-ish and flat
// past dim ~64, and the ladder keeps tuning at 65536 nodes to
// milliseconds.
func TunedDims(n int) []int {
	if n <= 65 {
		dims := make([]int, 0, n-1)
		for d := 1; d < n; d++ {
			dims = append(dims, d)
		}
		return dims
	}
	dims := make([]int, 0, 24)
	for d := 1; d <= 16; d++ {
		dims = append(dims, d)
	}
	for _, d := range []int{20, 24, 28, 32, 40, 48, 56, 64} {
		if d < n {
			dims = append(dims, d)
		}
	}
	return dims
}

// TunedGBDim picks the GB tree dimension for an n-node barrier from the
// closed-form model, replacing the exhaustive per-dimension DES sweep. It
// uses the sweep's own measurement window (warmup 5, 200 iterations) so
// the answer is comparable with published sweep figures.
func TunedGBDim(n int, c GBSteadyCosts) int {
	return TunedGBDimOver(n, 5, 200, c, TunedDims(n))
}
