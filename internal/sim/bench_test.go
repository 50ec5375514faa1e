package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// The engine micro-benchmarks cover the three hot operations of the event
// loop: schedule+pop churn at a steady queue depth, cancellation (hot in
// reliable mode, where every ACK cancels a retransmit timer), and a
// synthetic process barrier that exercises the proc/signal machinery the
// way the MCP firmware does. BenchmarkBarrierEventsPerSec reports
// events/sec. They are for measuring while working on the engine; the
// repository benchmark (go run ./bench) carries the tracked numbers.

// benchSchedulePop churns the queue at a steady depth: every popped event
// schedules a replacement until b.N replacements have been made, then the
// queue drains. ns/op is the cost of one schedule+pop pair.
func benchSchedulePop(b *testing.B, depth int) {
	s := New()
	rng := rand.New(rand.NewSource(1))
	remaining := b.N
	var fn func()
	fn = func() {
		if remaining <= 0 {
			return
		}
		remaining--
		s.After(Time(rng.Intn(1000)+1), fn)
	}
	for i := 0; i < depth; i++ {
		s.After(Time(rng.Intn(1000)+1), fn)
	}
	b.ResetTimer()
	s.Run()
}

// benchSchedulePopMix is benchSchedulePop with reliable-mode traffic around
// it: depth/8 retransmit timers stand 1–16 ms ahead of the near churn, and
// every eighth pop cancels the oldest and arms a new one, the way a send
// arms a timer and its ACK disarms it.
func benchSchedulePopMix(b *testing.B, depth int) {
	s := New()
	rng := rand.New(rand.NewSource(1))
	nop := func() {}
	farDelay := func() Time { return Millisecond + Time(rng.Int63n(int64(15*Millisecond))) }
	timers := make([]EventID, depth/8)
	for i := range timers {
		timers[i] = s.After(farDelay(), nop)
	}
	oldest := 0
	remaining := b.N
	var fn func()
	fn = func() {
		if remaining <= 0 {
			return
		}
		remaining--
		s.After(Time(rng.Intn(1000)+1), fn)
		if remaining%8 == 0 {
			s.Cancel(timers[oldest])
			timers[oldest] = s.After(farDelay(), nop)
			oldest = (oldest + 1) % len(timers)
		}
	}
	for i := 0; i < depth; i++ {
		s.After(Time(rng.Intn(1000)+1), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for remaining > 0 && s.Step() {
	}
	b.StopTimer()
	for _, id := range timers {
		s.Cancel(id)
	}
	s.Run()
}

func BenchmarkSchedulePop(b *testing.B) {
	for _, depth := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			benchSchedulePop(b, depth)
		})
	}
	for _, depth := range []int{256, 16384} {
		b.Run(fmt.Sprintf("mix/depth=%d", depth), func(b *testing.B) {
			benchSchedulePopMix(b, depth)
		})
	}
}

// benchCancel schedules batches of depth events and cancels them in random
// order; ns/op is the cost of one Cancel against a queue of that depth.
func benchCancel(b *testing.B, depth int) {
	s := New()
	rng := rand.New(rand.NewSource(2))
	var ids []EventID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(ids) == 0 {
			b.StopTimer()
			s.Run() // drain residue so depth stays fixed across batches
			ids = ids[:0]
			for j := 0; j < depth; j++ {
				ids = append(ids, s.After(Time(rng.Intn(1000)+1), func() {}))
			}
			rng.Shuffle(len(ids), func(x, y int) { ids[x], ids[y] = ids[y], ids[x] })
			b.StartTimer()
		}
		id := ids[len(ids)-1]
		ids = ids[:len(ids)-1]
		if !s.Cancel(id) {
			b.Fatal("Cancel returned false for pending event")
		}
	}
}

// benchCancelFar is benchCancel for retransmit timers: depth near events
// stay pending while batches of depth timers 1–16 ms ahead are armed and
// cancelled in random order; ns/op is the cost of cancelling one far timer.
func benchCancelFar(b *testing.B, depth int) {
	s := New()
	rng := rand.New(rand.NewSource(2))
	nop := func() {}
	for j := 0; j < depth; j++ {
		s.After(Time(rng.Intn(1000)+1), nop)
	}
	var ids []EventID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(ids) == 0 {
			b.StopTimer()
			for j := 0; j < depth; j++ {
				ids = append(ids, s.After(Millisecond+Time(rng.Int63n(int64(15*Millisecond))), nop))
			}
			rng.Shuffle(len(ids), func(x, y int) { ids[x], ids[y] = ids[y], ids[x] })
			b.StartTimer()
		}
		id := ids[len(ids)-1]
		ids = ids[:len(ids)-1]
		if !s.Cancel(id) {
			b.Fatal("Cancel returned false for pending timer")
		}
	}
}

func BenchmarkCancel(b *testing.B) {
	for _, depth := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			benchCancel(b, depth)
		})
		b.Run(fmt.Sprintf("far/depth=%d", depth), func(b *testing.B) {
			benchCancelFar(b, depth)
		})
	}
}

// BenchmarkBarrierEventsPerSec runs a 16-process counter barrier for b.N
// rounds: each round every process sleeps a skewed amount, increments a
// counter, and the last arrival releases the rest — the proc/signal/timer
// pattern the firmware model uses. Reports engine throughput in events/sec.
func BenchmarkBarrierEventsPerSec(b *testing.B) {
	const procs = 16
	s := New()
	count := 0
	sig := s.NewSignal()
	rounds := b.N
	for p := 0; p < procs; p++ {
		p := p
		s.Spawn(fmt.Sprintf("rank%d", p), func(pr *Proc) {
			for r := 0; r < rounds; r++ {
				pr.Sleep(Time(10 + p))
				count++
				if count == procs {
					count = 0
					sig.Fire()
				} else {
					pr.Wait(sig)
				}
			}
		})
	}
	b.ResetTimer()
	s.Run()
	if s.Stranded() != 0 {
		b.Fatalf("stranded procs: %d", s.Stranded())
	}
	b.ReportMetric(float64(s.Executed())/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkProcHandoff is bench/'s sim.proc_handoff_ns: two processes
// alternating Sleep, so every op is one event plus a switch into a process
// and back.
func BenchmarkProcHandoff(b *testing.B) {
	s := New()
	sleeps := (b.N + 1) / 2
	for i := 0; i < 2; i++ {
		s.Spawn("sleeper", func(p *Proc) {
			for k := 0; k < sleeps; k++ {
				p.Sleep(1)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// BenchmarkSignalWake is bench/'s sim.signal_wake_ns: one process woken by
// a signal fired from the event loop.
func BenchmarkSignalWake(b *testing.B) {
	s := New()
	sig := s.NewSignal()
	s.Spawn("waiter", func(p *Proc) {
		for k := 0; k < b.N; k++ {
			p.Wait(sig)
		}
	})
	left := b.N
	var fire func()
	fire = func() {
		sig.Fire()
		if left--; left > 0 {
			s.After(1, fire)
		}
	}
	s.After(1, fire)
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}
