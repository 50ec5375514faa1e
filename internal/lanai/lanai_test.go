package lanai

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gmsim/internal/phase"
	"gmsim/internal/sim"
)

// exec charges a one-off closure as a firmware task.
func exec(n *NIC, cycles int64, fn func()) { n.ExecTaggedCall(cycles, "fw", runFunc, fn) }

func runFunc(a any) { a.(func())() }

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
	exec(n, 33, func() { at = s.Now() })
	s.Run()
	if at != sim.Microsecond {
		t.Fatalf("task ran at %v, want 1us", at)
	}
}

func TestExecSerializes(t *testing.T) {
	s := sim.New()
	n := NewNIC(s, LANai43())
	var times []sim.Time
	exec(n, 33, func() { times = append(times, s.Now()) })
	exec(n, 33, func() { times = append(times, s.Now()) })
	exec(n, 33, func() { times = append(times, s.Now()) })
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
	exec(n, 33, func() {
		exec(n, 66, func() { second = s.Now() })
	})
	s.Run()
	if second != 3000 {
		t.Fatalf("nested task ran at %v, want 3000", second)
	}
}

// A dead card charges and schedules nothing; tasks queued before the crash
// still run.
func TestDeadCardTakesNoTask(t *testing.T) {
	s := sim.New()
	n := NewNIC(s, LANai43())
	ran := 0
	exec(n, 33, func() { ran++ })
	n.Kill()
	exec(n, 33, func() { ran++ })
	s.Run()
	if !n.Dead() || ran != 1 || n.CPUTasks() != 1 || s.Now() != sim.Microsecond {
		t.Fatalf("dead %v, %d tasks ran, %d charged, clock %v; want true, 1, 1, 1us", n.Dead(), ran, n.CPUTasks(), s.Now())
	}
}

func TestCPUIdleGapNotCharged(t *testing.T) {
	s := sim.New()
	n := NewNIC(s, LANai43())
	exec(n, 33, func() {})
	s.Run() // cpu idle at 1000
	s.RunUntil(5000)
	var at sim.Time
	exec(n, 33, func() { at = s.Now() })
	s.Run()
	if at != 6000 {
		t.Fatalf("post-idle task at %v, want 6000", at)
	}
	if n.CPUBusyTime() != 2000 {
		t.Fatalf("busy = %v, want 2000", n.CPUBusyTime())
	}
}

// A stall freezes the processor from now, or from the end of its current
// commitments: queued and later tasks wait it out, and it is not busy time.
func TestStallDelaysTasks(t *testing.T) {
	s := sim.New()
	n := NewNIC(s, LANai43())
	var at []sim.Time
	exec(n, 33, func() { at = append(at, s.Now()) }) // busy until 1 µs
	n.Stall(4 * sim.Microsecond)                     // 1–5 µs
	n.Stall(0)                                       // no-ops
	n.Stall(-1)
	exec(n, 33, func() { at = append(at, s.Now()) }) // 5–6 µs
	s.Run()
	if len(at) != 2 || at[0] != sim.Microsecond || at[1] != 6*sim.Microsecond {
		t.Fatalf("tasks ran at %v, want [1us 6us]", at)
	}
	if n.Stalls() != 1 || n.CPUBusyTime() != 2*sim.Microsecond {
		t.Fatalf("%d stalls, busy %v; want 1, 2us", n.Stalls(), n.CPUBusyTime())
	}
	n.Kill()
	n.Stall(sim.Microsecond)
	if n.Stalls() != 1 {
		t.Fatal("a dead card stalled")
	}
}

// With a recorder attached, a task, a stall and a DMA transfer each leave a
// span on their track; a crash drops the held span of a transfer whose task
// ends at or after it.
func TestPhaseSpans(t *testing.T) {
	s := sim.New()
	n := NewNIC(s, LANai43())
	if n.Sim() != s || n.Model() != LANai43() {
		t.Fatal("accessors do not return the card's simulator and model")
	}
	r := phase.NewRecorder()
	n.SetPhaseRecorder(r, 3)
	exec(n, 33, func() {})                             // fw 0–1 µs
	n.Stall(sim.Microsecond)                           // stall 1–2 µs
	_, done, _ := n.ExecDMA(33, "dma", n.SDMA(), 132)  // fw 2–3 µs, SDMA from 3 µs
	late, _, _ := n.ExecDMA(33, "late", n.RDMA(), 132) // fw 3–4 µs
	s.RunUntil(late)
	n.Kill()
	s.Run()
	type key struct {
		track phase.Track
		label string
		start sim.Time
	}
	var got []key
	for _, sp := range r.Spans() {
		if sp.Node != 3 {
			t.Errorf("span on node %d, want 3", sp.Node)
		}
		got = append(got, key{sp.Track, r.Name(sp.Label), sp.Start})
	}
	want := []key{
		{phase.TrackFW, "fw", 0},
		{phase.TrackFW, "stall", sim.Microsecond},
		{phase.TrackFW, "dma", 2 * sim.Microsecond},
		{phase.TrackFW, "late", 3 * sim.Microsecond},
		{phase.TrackSDMA, phase.TrackSDMA.String(), 3 * sim.Microsecond},
	}
	if len(got) != len(want) {
		t.Fatalf("spans %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: %v, want %v", i, got[i], want[i])
		}
	}
	if done != 3*sim.Microsecond+LANai43().SDMA.transferTime(132) {
		t.Errorf("SDMA transfer done at %v", done)
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
	exec(n, 330, func() { cpuAt = s.Now() }) // 10 µs, behind the 1 µs task
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
	exec(n, 33, func() {}) // the processor is busy until 1 µs
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
			exec(n, c, func() {
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
