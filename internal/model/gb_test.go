package model

import (
	"math"
	"testing"
)

func TestGBDepth(t *testing.T) {
	cases := []struct{ n, dim, want int }{
		{1, 2, 0},  // singleton
		{2, 2, 1},  // one child
		{4, 2, 2},  // paper's 4-node binary tree
		{8, 2, 3},  // heap depth of rank 7
		{16, 2, 4}, // Figure 4's 16-node binary tree
		{16, 3, 3},
		{16, 4, 2},
		{8, 7, 1}, // star
		{6, 1, 5}, // chain
		{4, 0, 0}, // degenerate dim
	}
	for _, c := range cases {
		if got := GBDepth(c.n, c.dim); got != c.want {
			t.Errorf("GBDepth(%d,%d) = %d, want %d", c.n, c.dim, got, c.want)
		}
	}
}

func TestGBTermsCalibration(t *testing.T) {
	t43 := GBTerms43()
	// The firmware cycle counts at 33 MHz: token parse (180+400 cycles),
	// per-level step (320+40+100 cycles).
	if math.Abs(t43.Token-580.0/33.0) > 1e-9 || math.Abs(t43.Step-460.0/33.0) > 1e-9 {
		t.Fatalf("GBTerms43 = %+v", t43)
	}
}

func TestNICBarrierGBShape(t *testing.T) {
	b := PaperEstimate43()
	gb := GBTerms43()
	// Deeper trees cost more; n=16: dim 2 (depth 4) > dim 3 (depth 3).
	if b.NICBarrierGB(16, 2, gb) <= b.NICBarrierGB(16, 3, gb) {
		t.Fatal("deeper GB tree should cost more")
	}
	// The singleton degenerates to the bracketing terms plus the token.
	want := b.Send + gb.Token + b.RDMA + b.HRecv
	if got := b.NICBarrierGB(1, 2, gb); math.Abs(got-want-float64(2-1)*gb.Step) > 1e-9 {
		t.Fatalf("singleton GB barrier = %.2f", got)
	}
	// The dim-2 16-node prediction that the conformance test compares to
	// the simulator: Send + Token + 8*(Network+Step) + Step + RDMA + HRecv.
	pred := b.NICBarrierGB(16, 2, gb)
	manual := b.Send + gb.Token + 8*(b.Network+gb.Step) + gb.Step + b.RDMA + b.HRecv
	if math.Abs(pred-manual) > 1e-9 {
		t.Fatalf("NICBarrierGB(16,2) = %.4f, manual %.4f", pred, manual)
	}
	// GB trades host-visible latency for tree fan-in: at n=16 it predicts
	// slower than PE (matches the paper's measured Section 6 ordering at
	// these firmware costs) but still far below the host barrier.
	if pred < b.NICBarrier(16) {
		t.Fatal("GB should not beat PE under the LANai 4.3 calibration")
	}
	if pred > b.HostBarrier(16) {
		t.Fatal("NIC GB barrier should beat the host barrier")
	}
}
