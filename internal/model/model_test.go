package model

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestHostBarrierEquation(t *testing.T) {
	b := Breakdown{Send: 1, SDMA: 2, Network: 3, Recv: 4, RDMA: 5, HRecv: 6}
	// step = 21; log2(8) = 3.
	if got := b.HostBarrier(8); !almost(got, 63, 1e-9) {
		t.Fatalf("HostBarrier(8) = %v, want 63", got)
	}
	if got := b.HostBarrier(2); !almost(got, 21, 1e-9) {
		t.Fatalf("HostBarrier(2), one step, = %v, want 21", got)
	}
}

func TestNICBarrierEquation(t *testing.T) {
	b := Breakdown{Send: 1, SDMA: 2, Network: 3, Recv: 4, RDMA: 5, HRecv: 6}
	// T = 1 + 3*(3+4) + 5 + 6 = 33.
	if got := b.NICBarrier(8); !almost(got, 33, 1e-9) {
		t.Fatalf("NICBarrier(8) = %v, want 33", got)
	}
}

func TestNICRecvOverride(t *testing.T) {
	b := Breakdown{Send: 1, Network: 3, Recv: 4, NICRecv: 10, RDMA: 5, HRecv: 6}
	// T = 1 + 1*(3+10) + 5 + 6 = 25 at n=2.
	if got := b.NICBarrier(2); !almost(got, 25, 1e-9) {
		t.Fatalf("NICBarrier(2) = %v, want 25", got)
	}
	if got := b.NICBarrier(4) - b.NICBarrier(2); !almost(got, 13, 1e-9) {
		t.Fatalf("NIC per-step cost = %v, want 13", got)
	}
}

func TestSingletonBarrierZeroSteps(t *testing.T) {
	b := PaperEstimate43()
	if b.HostBarrier(1) != 0 {
		t.Fatal("1-process host barrier should have zero steps")
	}
	want := b.Send + b.RDMA + b.HRecv
	if got := b.NICBarrier(1); !almost(got, want, 1e-9) {
		t.Fatalf("NICBarrier(1) = %v, want %v", got, want)
	}
}

func TestFactorMatchesPaperBallpark(t *testing.T) {
	// The segment estimates derived from the paper's measurements must
	// predict latencies and factors near the measured ones.
	b43 := PaperEstimate43()
	if got := b43.HostBarrier(16); !almost(got, 181.8, 10) {
		t.Fatalf("host 16 = %v, want ~181.8", got)
	}
	if got := b43.NICBarrier(16); !almost(got, 102.1, 10) {
		t.Fatalf("nic 16 = %v, want ~102.1", got)
	}
	if f := b43.Factor(16); !almost(f, 1.78, 0.2) {
		t.Fatalf("factor 16 = %v, want ~1.78", f)
	}
	b72 := PaperEstimate72()
	if got := b72.NICBarrier(8); !almost(got, 49.3, 8) {
		t.Fatalf("nic 8 (7.2) = %v, want ~49.3", got)
	}
	if got := b72.HostBarrier(8); !almost(got, 90.2, 10) {
		t.Fatalf("host 8 (7.2) = %v, want ~90.2", got)
	}
}

// Property: Equation 3's qualitative predictions — the factor increases
// with N and with added host-side overhead.
func TestPropertyFactorMonotonicity(t *testing.T) {
	f := func(sendExtra uint8) bool {
		b := PaperEstimate43()
		b.Send += float64(sendExtra)
		b.HRecv += float64(sendExtra)
		prev := 0.0
		for _, n := range []int{2, 4, 8, 16, 32, 64} {
			fac := b.Factor(n)
			if fac < prev {
				return false
			}
			prev = fac
		}
		// More host overhead => larger factor at fixed N.
		b2 := b
		b2.Send += 10
		b2.HRecv += 10
		return b2.Factor(16) > b.Factor(16)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFactorZeroGuard(t *testing.T) {
	var b Breakdown
	if b.Factor(8) != 0 {
		t.Fatal("zero breakdown should give zero factor, not NaN")
	}
}

func TestTimingDiagramHost(t *testing.T) {
	b := PaperEstimate43()
	segs, err := b.TimingDiagram("host", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 18 { // 3 steps × 6 segments
		t.Fatalf("segments = %d, want 18", len(segs))
	}
	// Segments are contiguous.
	for i := 1; i < len(segs); i++ {
		if !almost(segs[i].Start, segs[i-1].Start+segs[i-1].Duration, 1e-9) {
			t.Fatalf("segment %d not contiguous", i)
		}
	}
	end := segs[len(segs)-1].Start + segs[len(segs)-1].Duration
	if !almost(end, b.HostBarrier(8), 1e-9) {
		t.Fatalf("diagram end %v != equation %v", end, b.HostBarrier(8))
	}
}

func TestTimingDiagramNIC(t *testing.T) {
	b := PaperEstimate43()
	segs, err := b.TimingDiagram("nic", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 9 { // Send + 3×(Network,Recv) + RDMA + HRecv
		t.Fatalf("segments = %d, want 9", len(segs))
	}
	end := segs[len(segs)-1].Start + segs[len(segs)-1].Duration
	if !almost(end, b.NICBarrier(8), 1e-9) {
		t.Fatalf("diagram end %v != equation %v", end, b.NICBarrier(8))
	}
}

func TestTimingDiagramErrors(t *testing.T) {
	b := PaperEstimate43()
	if _, err := b.TimingDiagram("host", 6); err == nil {
		t.Fatal("non-power-of-two should error")
	}
	if _, err := b.TimingDiagram("quantum", 8); err == nil {
		t.Fatal("unknown kind should error")
	}
}

func TestRenderDiagram(t *testing.T) {
	b := PaperEstimate43()
	segs, _ := b.TimingDiagram("nic", 8)
	out := RenderDiagram(segs, 60)
	if !strings.Contains(out, "Send") || !strings.Contains(out, "total:") {
		t.Fatalf("render output missing parts:\n%s", out)
	}
	if RenderDiagram(nil, 60) != "" {
		t.Fatal("empty segments should render empty")
	}
	if RenderDiagram(segs, 5) != "" {
		t.Fatal("tiny width should render empty")
	}
}
