package model

import (
	"math"
	"testing"
)

// TestGBSteadyCostsDerivation pins the derived cost sets to the values
// implied by the default parameter blocks (cycles rounded half-up at the
// clock, wire and host terms clock-independent).
func TestGBSteadyCostsDerivation(t *testing.T) {
	c := GBCosts43()
	want := GBSteadyCosts{
		Token: 17576, Prep: 10909, Recv: 3030, Complete: 4545,
		EvtDMA: 1621, HopHead: 600, LastHop: 400, WireSer: 100,
		Evt2Done: 6500, Done2Post: 4100,
	}
	if c != want {
		t.Fatalf("GBCosts43 = %+v, want %+v", c, want)
	}
	c72 := GBCostsAt(66)
	if c72.Token != 8788 || c72.Prep != 5455 || c72.Recv != 1515 || c72.Complete != 2273 {
		t.Fatalf("GBCostsAt(66) firmware terms = %+v, want halved-and-rounded 4.3 values", c72)
	}
	if c72.EvtDMA != c.EvtDMA || c72.HopHead != c.HopHead || c72.Evt2Done != c.Evt2Done {
		t.Fatalf("GBCostsAt(66) wire/host terms should not scale with the clock: %+v", c72)
	}
}

// TestTunedGBDimKnownArgmins pins the tuned dimensions to the argmins the
// exhaustive DES sweep measures on the single-crossbar sizes (the
// experiments package re-checks this against a live sweep; this copy
// keeps the model package self-guarding).
func TestTunedGBDimKnownArgmins(t *testing.T) {
	c := GBCosts43()
	want := map[int]int{2: 1, 3: 2, 4: 3, 5: 4, 8: 5, 12: 7, 16: 4, 24: 4}
	for n, dim := range want {
		if got := TunedGBDim(n, c); got != dim {
			t.Errorf("TunedGBDim(%d) = %d, want %d (measured sweep argmin)", n, got, dim)
		}
	}
}

func TestGBSteadyStateProperties(t *testing.T) {
	c := GBCosts43()
	// Steady state is reached within the standard warmup: lengthening it
	// must not move the mean.
	a := GBSteadyState(16, 4, 5, 100, c)
	b := GBSteadyState(16, 4, 20, 100, c)
	if math.Abs(a-b) > 1e-6 {
		t.Fatalf("steady-state mean drifts with warmup: %v vs %v", a, b)
	}
	// More nodes at a fixed dimension can only slow the barrier.
	prev := 0.0
	for _, n := range []int{2, 4, 8, 16, 64, 256} {
		p := GBSteadyState(n, 4, 5, 50, c)
		if p <= prev {
			t.Fatalf("period not increasing in n: n=%d gives %v after %v", n, p, prev)
		}
		prev = p
	}
	// Deterministic: same inputs, same float.
	if x, y := GBSteadyState(24, 7, 5, 200, c), GBSteadyState(24, 7, 5, 200, c); x != y {
		t.Fatalf("GBSteadyState not deterministic: %v vs %v", x, y)
	}
	// Degenerate inputs stay sane.
	if GBSteadyState(1, 3, 5, 50, c) != 0 {
		t.Fatal("single node should cost nothing")
	}
	if d := TunedGBDim(1, c); d != 1 {
		t.Fatalf("TunedGBDim(1) = %d, want 1", d)
	}
	// The faster NIC is uniformly faster.
	if f43, f72 := GBSteadyState(16, 4, 5, 50, GBCosts43()), GBSteadyState(16, 4, 5, 50, GBCostsAt(66)); f72 >= f43 {
		t.Fatalf("LANai 7.2 (%v) not faster than 4.3 (%v)", f72, f43)
	}
}
