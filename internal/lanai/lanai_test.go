package lanai

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gmsim/internal/sim"
)

func TestModelCycles(t *testing.T) {
	m := LANai43()
	// 33 cycles at 33 MHz = 1 µs.
	if got := m.Cycles(33); got != sim.Microsecond {
		t.Fatalf("Cycles(33) = %v, want 1us", got)
	}
	if m.Cycles(0) != 0 || m.Cycles(-5) != 0 {
		t.Fatal("non-positive cycles should be zero time")
	}
}

func TestLANai72TwiceAsFast(t *testing.T) {
	c43 := LANai43().Cycles(1000)
	c72 := LANai72().Cycles(1000)
	ratio := float64(c43) / float64(c72)
	if ratio < 1.99 || ratio > 2.01 {
		t.Fatalf("4.3/7.2 cycle-time ratio = %v, want 2", ratio)
	}
}

func TestModelString(t *testing.T) {
	if LANai43().String() != "LANai 4.3 (33 MHz)" {
		t.Fatalf("String = %q", LANai43().String())
	}
}

func TestExecRunsAfterCycles(t *testing.T) {
	s := sim.New()
	n := NewNIC(s, LANai43())
	var at sim.Time
	n.ExecTagged(33, "fw", func() { at = s.Now() })
	s.Run()
	if at != sim.Microsecond {
		t.Fatalf("task ran at %v, want 1us", at)
	}
}

func TestExecSerializes(t *testing.T) {
	s := sim.New()
	n := NewNIC(s, LANai43())
	var times []sim.Time
	n.ExecTagged(33, "fw", func() { times = append(times, s.Now()) })
	n.ExecTagged(33, "fw", func() { times = append(times, s.Now()) })
	n.ExecTagged(33, "fw", func() { times = append(times, s.Now()) })
	s.Run()
	want := []sim.Time{1000, 2000, 3000}
	for i, w := range want {
		if times[i] != w {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
	if n.CPUTasks() != 3 {
		t.Fatalf("CPUTasks = %d", n.CPUTasks())
	}
	if n.CPUBusyTime() != 3000 {
		t.Fatalf("CPUBusyTime = %v", n.CPUBusyTime())
	}
}

func TestExecFromWithinTaskQueuesAfter(t *testing.T) {
	s := sim.New()
	n := NewNIC(s, LANai43())
	var second sim.Time
	n.ExecTagged(33, "fw", func() {
		n.ExecTagged(66, "fw", func() { second = s.Now() })
	})
	s.Run()
	if second != 3000 {
		t.Fatalf("nested task ran at %v, want 3000", second)
	}
}

func TestCPUIdleGapNotCharged(t *testing.T) {
	s := sim.New()
	n := NewNIC(s, LANai43())
	n.ExecTagged(33, "fw", func() {})
	s.Run() // cpu idle at 1000
	s.RunUntil(5000)
	var at sim.Time
	n.ExecTagged(33, "fw", func() { at = s.Now() })
	s.Run()
	if at != 6000 {
		t.Fatalf("post-idle task at %v, want 6000", at)
	}
	if n.CPUBusyTime() != 2000 {
		t.Fatalf("busy = %v, want 2000", n.CPUBusyTime())
	}
}

func TestDMATransferTime(t *testing.T) {
	d := DMAParams{Startup: 1000, BandwidthMBps: 132}
	// 132 bytes at 132 MB/s = 1 µs.
	if got := d.transferTime(132); got != 2000 {
		t.Fatalf("transferTime = %v, want 2000", got)
	}
	if d.transferTime(0) != 1000 {
		t.Fatal("zero-byte transfer should still pay startup")
	}
}

func TestDMACompletion(t *testing.T) {
	s := sim.New()
	n := NewNIC(s, LANai43())
	var at sim.Time
	n.SDMA().StartCall(132, func(any) { at = s.Now() }, nil)
	s.Run()
	want := LANai43().SDMA.transferTime(132)
	if at != want {
		t.Fatalf("DMA done at %v, want %v", at, want)
	}
	if n.SDMA().Transfers() != 1 || n.SDMA().Bytes() != 132 {
		t.Fatal("DMA counters wrong")
	}
}

func TestDMAEnginesIndependent(t *testing.T) {
	s := sim.New()
	n := NewNIC(s, LANai43())
	var sdmaAt, rdmaAt sim.Time
	n.SDMA().StartCall(1320, func(any) { sdmaAt = s.Now() }, nil)
	n.RDMA().StartCall(1320, func(any) { rdmaAt = s.Now() }, nil)
	s.Run()
	if sdmaAt != rdmaAt {
		t.Fatalf("engines should run concurrently: %v vs %v", sdmaAt, rdmaAt)
	}
}

func TestDMASerializesPerEngine(t *testing.T) {
	s := sim.New()
	n := NewNIC(s, LANai43())
	var times []sim.Time
	n.SDMA().StartCall(1320, func(any) { times = append(times, s.Now()) }, nil)
	n.SDMA().StartCall(1320, func(any) { times = append(times, s.Now()) }, nil)
	s.Run()
	per := LANai43().SDMA.transferTime(1320)
	if times[0] != per || times[1] != 2*per {
		t.Fatalf("times = %v, want %v and %v", times, per, 2*per)
	}
	if n.SDMA().BusyTime() != 2*per {
		t.Fatalf("BusyTime = %v", n.SDMA().BusyTime())
	}
}

func TestCPUAndDMAOverlap(t *testing.T) {
	// CPU work issued at the same time as a DMA completes independently.
	s := sim.New()
	n := NewNIC(s, LANai43())
	var cpuAt, dmaAt sim.Time
	n.ExecTagged(330, "fw", func() { cpuAt = s.Now() }) // 10 µs
	n.SDMA().StartCall(132, func(any) { dmaAt = s.Now() }, nil)
	s.Run()
	if dmaAt >= cpuAt {
		t.Fatalf("DMA (%v) should finish before slow CPU task (%v)", dmaAt, cpuAt)
	}
}

// Property: k tasks of c cycles each finish exactly at i*c cycles; total
// busy time equals k*c cycles regardless of submission pattern.
func TestPropertyCPUSerialization(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New()
		n := NewNIC(s, LANai72())
		k := 1 + rng.Intn(20)
		var doneCount int
		var lastEnd sim.Time
		var expectedBusy sim.Time
		for i := 0; i < k; i++ {
			c := int64(1 + rng.Intn(500))
			expectedBusy += LANai72().Cycles(c)
			n.ExecTagged(c, "fw", func() {
				doneCount++
				if s.Now() < lastEnd {
					doneCount = -1000000 // ordering violated
				}
				lastEnd = s.Now()
			})
		}
		s.Run()
		return doneCount == k && n.CPUBusyTime() == expectedBusy && lastEnd == expectedBusy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
