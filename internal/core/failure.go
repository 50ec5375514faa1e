package core

import (
	"fmt"

	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/network"
)

// Degraded barrier completion (crash-fault tolerance). When the cluster
// runs with failure detection (cluster.Config.DetectFailures), a NIC-based
// barrier no longer hangs on a crashed participant: the firmware detects
// the death, repairs the exchange around it, and completes among the
// survivors in bounded time. The completion event then carries the dead
// set, which this file surfaces to the program as a BarrierResult.

// ErrDegradedBarrier is wrapped by BarrierResult.Err when a barrier
// completed around one or more fail-stopped participants.
var ErrDegradedBarrier = fmt.Errorf("core: barrier completed degraded (participants fail-stopped)")

// BarrierResult reports how a checked barrier completed.
type BarrierResult struct {
	// Dead lists the fail-stopped nodes the NIC reported at completion,
	// ascending. Nil on a clean completion.
	Dead []network.NodeID
	// Survivors lists the group ranks whose nodes were not reported dead
	// (the caller's own rank included), in group order.
	Survivors []int
	// Err is non-nil when the barrier completed degraded: it wraps
	// ErrDegradedBarrier and names the dead. The barrier itself still
	// completed — among the survivors — so the caller chooses whether a
	// degraded completion is an error for its purposes.
	Err error
}

// Degraded reports whether the barrier completed around failures.
func (r BarrierResult) Degraded() bool { return len(r.Dead) > 0 }

// resultFor builds a BarrierResult from a completion's dead set.
func resultFor(g Group, dead []network.NodeID) BarrierResult {
	r := BarrierResult{Dead: dead}
	if len(dead) == 0 {
		r.Survivors = make([]int, len(g))
		for i := range g {
			r.Survivors[i] = i
		}
		return r
	}
	isDead := make(map[network.NodeID]bool, len(dead))
	for _, n := range dead {
		isDead[n] = true
	}
	for i, ep := range g {
		if !isDead[ep.Node] {
			r.Survivors = append(r.Survivors, i)
		}
	}
	r.Err = fmt.Errorf("%w: dead=%v survivors=%d/%d",
		ErrDegradedBarrier, dead, len(r.Survivors), len(g))
	return r
}

// BarrierChecked runs a blocking NIC-based barrier and reports how it
// completed: cleanly, or degraded around crashed participants. Unlike
// Barrier, a degraded completion is not silent — the result carries the
// dead set and the surviving ranks. The returned error is non-nil only
// when the barrier could not run at all (bad group arguments); degraded
// completion is reported through BarrierResult.Err.
func (c *Comm) BarrierChecked(p *host.Process, alg mcp.BarrierAlg, g Group, self, dim int) (BarrierResult, error) {
	pb, err := c.StartBarrier(p, alg, g, self, dim)
	if err != nil {
		return BarrierResult{}, err
	}
	pb.Wait(p)
	return resultFor(g, pb.Dead()), nil
}
