package sim_test

import (
	"testing"

	"gmsim/internal/sim"
)

// TestCalendarRetunesAfterOverrunningPops: same-instant tranches tune the
// calendar to nanosecond days (the inter-pop gap reads zero), and the queue
// grows to thousands of buckets on the way. A long idle gap follows, then
// steady traffic whose events lie milliseconds ahead: years of that
// calendar, few enough that no insert is long and the queue never grows. A
// pop whose year holds no event sweeps every bucket; after a run of them the
// calendar must refit its width to the horizons, so the sweeps stop and a pop
// looks at a bounded number of buckets.
func TestCalendarRetunesAfterOverrunningPops(t *testing.T) {
	const (
		tranches     = 5       // same-instant tranches one nanosecond apart, 256 << k events each
		chains, hops = 64, 400 // spread traffic: chains of self-rescheduling events
	)
	s := sim.New()
	// Phase 1: each tranche's last event schedules the next, twice as large,
	// one nanosecond later; each grows the queue, and the rebuild that grows
	// it reads an inter-pop gap of nearly zero.
	var tranchePhase func(k int) func()
	tranchePhase = func(k int) func() {
		return func() {
			if k == tranches {
				return
			}
			size := 256 << k
			for i := 0; i < size; i++ {
				if i == size-1 {
					s.After(1, tranchePhase(k+1))
				} else {
					s.After(1, func() {})
				}
			}
		}
	}
	s.At(0, tranchePhase(0))
	s.Run()
	nb, width := s.CalendarShape()
	t.Logf("after the tranches: %d buckets of %d ns", nb, width)
	if width != 1 || nb < 1024 {
		t.Fatalf("after the tranches: %d buckets of %d ns; the scenario needs thousands of 1 ns buckets", nb, width)
	}
	// Phase 2: a long idle gap.
	next := s.Now() + 5*sim.Millisecond
	// Phase 3: spread traffic, each chain stepping 2–6 ms at a time.
	for c := 0; c < chains; c++ {
		c := c
		left := hops
		var hop func()
		hop = func() {
			if left--; left > 0 {
				s.After(2*sim.Millisecond+sim.Time(c*7919+left*104729)%(4*sim.Millisecond), hop)
			}
		}
		s.At(next+sim.Time(c)*sim.Microsecond, hop)
	}
	probes0, sweeps0 := s.FindMinWork()
	pops0 := s.Executed()
	s.Run()
	probes, sweeps := s.FindMinWork()
	pops := s.Executed() - pops0
	probes -= probes0
	sweeps -= sweeps0
	perPop := float64(probes) / float64(pops)
	nb, width = s.CalendarShape()
	t.Logf("after the spread traffic: %d buckets of %d ns", nb, width)
	t.Logf("spread traffic: %d pops, %d direct sweeps, %.1f bucket probes a pop", pops, sweeps, perPop)
	if pops != chains*hops {
		t.Fatalf("%d pops, want %d", pops, chains*hops)
	}
	if sweeps > 2*64 || perPop > 64 {
		t.Errorf("%d direct sweeps and %.1f bucket probes a pop over %d pops: the calendar did not refit its width",
			sweeps, perPop, pops)
	}
}
