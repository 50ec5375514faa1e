package sim

import (
	"testing"
)

// TestZeroAllocSchedulePopDeliver pins the engine's core contract: once
// the calendar's slot pool and bucket arrays have warmed up, the
// schedule→pop→deliver path allocates nothing — for both the closure form
// (At with a long-lived func) and the method-value form (AtCall).
func TestZeroAllocSchedulePopDeliver(t *testing.T) {
	s := New()
	fired := 0
	fn := func() { fired++ }
	var now Time
	// Warm-up: grow the slot pool and settle the bucket width.
	for i := 0; i < 4096; i++ {
		now += Time(i%7) * 100
		s.At(now+Time(i%13), fn)
	}
	s.Run()

	if avg := testing.AllocsPerRun(200, func() {
		base := s.Now()
		for i := 0; i < 64; i++ {
			s.At(base+Time(i%9)*50, fn)
		}
		s.Run()
	}); avg != 0 {
		t.Errorf("schedule→pop→deliver (At) allocates %.2f per run, want 0", avg)
	}

	argSum := uint64(0)
	afn := func(arg uint64) { argSum += arg }
	if avg := testing.AllocsPerRun(200, func() {
		base := s.Now()
		for i := 0; i < 64; i++ {
			s.AtCall(base+Time(i%9)*50, afn, uint64(i))
		}
		s.Run()
	}); avg != 0 {
		t.Errorf("schedule→pop→deliver (AtCall) allocates %.2f per run, want 0", avg)
	}
	if fired == 0 || argSum == 0 {
		t.Fatalf("events did not run (fired=%d argSum=%d)", fired, argSum)
	}
}

// TestZeroAllocCancel pins that Cancel is allocation-free at steady state,
// for events near the clock and for timers far ahead of it.
func TestZeroAllocCancel(t *testing.T) {
	s := New()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		s.At(Time(i), fn)
	}
	s.Run()
	ids := make([]EventID, 64)
	if avg := testing.AllocsPerRun(200, func() {
		base := s.Now()
		for i := range ids {
			ids[i] = s.At(base+Time(i%17)*30+1, fn)
		}
		for _, id := range ids {
			if !s.Cancel(id) {
				t.Fatal("cancel failed")
			}
		}
	}); avg != 0 {
		t.Errorf("schedule+Cancel allocates %.2f per run, want 0", avg)
	}

	// The retransmit-timer pattern of reliable mode: every send arms a timer
	// 1–16 ms out, many calendar years past the near events around it, and
	// the ACK cancels it long before it fires.
	if avg := testing.AllocsPerRun(200, func() {
		base := s.Now()
		for i := range ids {
			s.At(base+Time(i%9)*50, fn)
			ids[i] = s.At(base+Time(1+i%16)*Millisecond, fn)
		}
		s.RunUntil(base + 500)
		for _, id := range ids {
			if !s.Cancel(id) {
				t.Fatal("cancel of a far timer failed")
			}
		}
	}); avg != 0 {
		t.Errorf("far-timer schedule+Cancel allocates %.2f per run, want 0", avg)
	}
	if s.Pending() != 0 {
		t.Errorf("%d events pending after every timer was cancelled", s.Pending())
	}
	s.Run()
}
