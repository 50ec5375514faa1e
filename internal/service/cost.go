package service

import (
	"math"
	"time"
)

// Cost estimation: admission control and per-job deadlines both need to
// know, before running anything, roughly how much engine work a spec buys.
// The estimate is in simulated events — the engine's native unit (events
// divided by a conservative events/sec rate is a wall-clock bound). It
// only has to be order-of-magnitude right: admission
// compares sums of estimates against a budget, and deadlines multiply in
// enough headroom that an honest job never trips one.

// Cost/deadline defaults.
const (
	// DefaultCostBudget bounds the summed estimated cost of queued and
	// running jobs — roughly 75 full 1024-node chaos runs.
	DefaultCostBudget = 256 << 20
	// DefaultDeadlineBase is the flat deadline every job gets on top of
	// its size-scaled share.
	DefaultDeadlineBase = 60 * time.Second
)

// Fixed job limits.
const (
	// deadlineRate is the assumed engine throughput in events/sec when
	// converting estimated cost to wall-clock. The serial engine does 2-4M
	// events/sec; assuming 200k gives 10-20x headroom, so a deadline only
	// fires on a genuinely wedged job.
	deadlineRate = 200_000
	// maxAttempts is how many times a job may panic before it is
	// dead-lettered instead of retried.
	maxAttempts = 2
)

// EstimateCost returns the estimated engine events a canonical spec costs:
// per barrier iteration each node contributes a handful of events (frame
// send/route/deliver/firmware task), fault plans add retransmission and
// detection traffic, and multi-switch topologies carry a headroom term that
// grows quadratically in the node count. An estimate past math.MaxInt64
// saturates there: a wrapped one could slip a huge spec under the budget.
func EstimateCost(s Spec) int64 {
	nodes := max(int64(s.Nodes), 2)
	iters := max(satAdd(int64(s.Warmup), int64(s.Iters)), 1)
	perNode := int64(4) // send + route + deliver + firmware task
	switch s.FaultPlan {
	case PlanNone, "":
	case PlanFlap, PlanCorrupt:
		perNode = 6 // retransmissions, NACKs, backoff timers
	default: // chaos, crash, partition: detection probes + gossip on top
		perNode = 8
	}
	cost := satMul(satMul(nodes, iters), perNode)
	// Quadratic headroom for multi-switch fabrics. It was sized on an
	// all-pairs route build that the arithmetic router no longer does; it
	// stays because admission limits and deadlines are set against this
	// formula.
	if s.Topo != "" && s.Topo != "single" {
		cost = satAdd(cost, satMul(nodes, nodes)/4)
	}
	return cost
}

// satAdd and satMul stop at math.MaxInt64 instead of wrapping; satMul
// takes non-negative operands.
func satAdd(a, b int64) int64 {
	if b > 0 && a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a > 0 && b > math.MaxInt64/a {
		return math.MaxInt64
	}
	return a * b
}

// deadlineFor converts an estimated cost into this server's wall-clock
// deadline: base + cost/deadlineRate, saturating at the longest Duration.
// A negative DeadlineBase disables deadlines (returns 0).
func (s *Server) deadlineFor(cost int64) time.Duration {
	base := s.cfg.DeadlineBase
	if base < 0 {
		return 0
	}
	secs := cost / deadlineRate
	if secs >= (math.MaxInt64-int64(base))/int64(time.Second) {
		return math.MaxInt64
	}
	return base + time.Duration(secs)*time.Second + time.Duration(cost%deadlineRate)*time.Second/deadlineRate
}
