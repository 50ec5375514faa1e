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
	due, done, ok := n.ExecDMA(0, "fw", n.SDMA(), 132)
	want := LANai43().SDMA.transferTime(132)
	if !ok || due != 0 || done != want {
		t.Fatalf("ExecDMA = %v, %v, %v; want 0, %v, true", due, done, ok, want)
	}
	if n.SDMA().Transfers() != 1 || n.SDMA().Bytes() != 132 {
		t.Fatal("DMA counters wrong")
	}
}

func TestDMAEnginesIndependent(t *testing.T) {
	s := sim.New()
	n := NewNIC(s, LANai43())
	_, sdmaAt, _ := n.ExecDMA(0, "fw", n.SDMA(), 1320)
	_, rdmaAt, _ := n.ExecDMA(0, "fw", n.RDMA(), 1320)
	if sdmaAt != rdmaAt {
		t.Fatalf("engines should run concurrently: %v vs %v", sdmaAt, rdmaAt)
	}
}

func TestDMASerializesPerEngine(t *testing.T) {
	s := sim.New()
	n := NewNIC(s, LANai43())
	_, first, _ := n.ExecDMA(0, "fw", n.SDMA(), 1320)
	_, second, _ := n.ExecDMA(0, "fw", n.SDMA(), 1320)
	per := LANai43().SDMA.transferTime(1320)
	if first != per || second != 2*per {
		t.Fatalf("done at %v and %v, want %v and %v", first, second, per, 2*per)
	}
	if n.SDMA().BusyTime() != 2*per {
		t.Fatalf("BusyTime = %v", n.SDMA().BusyTime())
	}
}

func TestCPUAndDMAOverlap(t *testing.T) {
	// A transfer runs while the processor goes on with later tasks.
	s := sim.New()
	n := NewNIC(s, LANai43())
	_, dmaAt, _ := n.ExecDMA(33, "fw", n.SDMA(), 132)
	var cpuAt sim.Time
	n.ExecTagged(330, "fw", func() { cpuAt = s.Now() }) // 10 µs, behind the 1 µs task
	s.Run()
	if dmaAt >= cpuAt {
		t.Fatalf("DMA (%v) should finish before slow CPU task (%v)", dmaAt, cpuAt)
	}
}

// A transfer starts when the task that starts it ends, or when its engine
// frees up, whichever is later.
func TestExecDMAStartsWhenTaskEnds(t *testing.T) {
	s := sim.New()
	n := NewNIC(s, LANai43())
	per := LANai43().RDMA.transferTime(132)
	n.ExecTagged(33, "fw", func() {}) // the processor is busy until 1 µs
	due, done, _ := n.ExecDMA(33, "fw", n.RDMA(), 132)
	if due != 2*sim.Microsecond || done != due+per {
		t.Fatalf("task ends %v, transfer done %v; want %v and %v", due, done, 2*sim.Microsecond, 2*sim.Microsecond+per)
	}
	// The next task ends before the engine is free: its transfer queues.
	due2, done2, _ := n.ExecDMA(33, "fw", n.RDMA(), 132)
	if due2 != 3*sim.Microsecond || done2 != done+per {
		t.Fatalf("second task ends %v, transfer done %v; want %v and %v", due2, done2, 3*sim.Microsecond, done+per)
	}
}

// A card killed at K books nothing more, and a transfer whose task ends at
// or after K never ran: it is taken off the counters as it would have
// completed.
func TestLandedAfterKill(t *testing.T) {
	s := sim.New()
	n := NewNIC(s, LANai43())
	early, _, _ := n.ExecDMA(33, "fw", n.RDMA(), 100)
	late, _, _ := n.ExecDMA(33, "fw", n.RDMA(), 200)
	if !n.Landed(n.RDMA(), late, 200) {
		t.Fatal("a live card's transfer did not land")
	}
	s.RunUntil(late)
	n.Kill()
	n.Kill() // idempotent: the crash instant stays
	if _, _, ok := n.ExecDMA(33, "fw", n.RDMA(), 1); ok || n.CPUTasks() != 2 {
		t.Fatalf("a dead card charged a task: ok %v, %d tasks", ok, n.CPUTasks())
	}
	if !n.Landed(n.RDMA(), early, 100) {
		t.Error("a transfer whose task ended before the crash did not land")
	}
	if n.Landed(n.RDMA(), late, 200) {
		t.Error("a transfer whose task ended at the crash landed")
	}
	if r := n.RDMA(); r.Transfers() != 1 || r.Bytes() != 100 || r.BusyTime() != LANai43().RDMA.transferTime(100) {
		t.Errorf("counters after the crash: %d transfers, %d bytes, busy %v", r.Transfers(), r.Bytes(), r.BusyTime())
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
