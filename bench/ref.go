package main

import (
	"container/heap"
	"fmt"
	"io"
	"math"
	"net"
	"time"
)

// The CPU kernel is a frozen piece of work with the same character as the
// simulator's hot path — a binary heap churned at depth 256, goroutine
// handoffs over unbuffered channels, and small closures allocated into a
// ring that keeps them alive for a while, so the garbage collector has
// work — run immediately before and after every timed op. This
// container's speed drifts by ±20 % over seconds and by more over
// minutes; the kernel drifts with it, so op time divided by adjacent
// kernel time repeats several times better than raw op time does.
//
// Frozen means frozen: changing any constant below changes every
// calibrated number, so a change here invalidates all earlier baselines.
const (
	// refNominalMs is the kernel's duration on a nominal machine. It only
	// scales calibrated times back into readable milliseconds.
	refNominalMs = 1.25

	refHeapDepth = 256
	refHeapOps   = 5500
	refPingPongs = 1100
	refAllocs    = 6000
	refRingSize  = 1 << 15
)

type refHeap []uint64

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(uint64)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// refEvent is what the allocation part of the kernel allocates: a record
// about the size of a simulator event, with a closure over it.
type refEvent struct {
	at  uint64
	fn  func() uint64
	pad [4]uint64
}

var (
	// refRing keeps the most recent refRingSize events reachable, so they
	// survive a few collections before they die, as queued events do.
	refRing    [refRingSize]*refEvent
	refRingPos int
	// refSink keeps the kernel's result live so the compiler cannot drop
	// the work.
	refSink uint64
)

// refRun executes the kernel once and returns its wall time. Every call
// does the same work: the heap and the generator restart from the same
// state, and the ring is a fixed size.
func refRun() time.Duration {
	var store [refHeapDepth]uint64
	h := refHeap(store[:])
	lcg := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return lcg >> 44
	}
	ping, pong := make(chan uint64), make(chan uint64)

	t0 := time.Now()
	for i := range h {
		h[i] = next()
	}
	heap.Init(&h)
	// Pop the minimum and schedule a successor later than it, as an event
	// loop does; heap.Fix on the root is pop+push without boxing.
	for i := 0; i < refHeapOps; i++ {
		h[0] += next() + 1
		heap.Fix(&h, 0)
	}
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	acc := h[0]
	for i := 0; i < refPingPongs; i++ {
		ping <- acc
		acc = <-pong
	}
	close(ping)
	<-pong // the partner has exited
	for i := 0; i < refAllocs; i++ {
		v := next()
		e := &refEvent{at: v}
		e.fn = func() uint64 { return e.at + v }
		refRing[refRingPos%refRingSize] = e
		refRingPos++
		if old := refRing[(refRingPos+17)%refRingSize]; old != nil {
			acc += old.fn()
		}
	}
	d := time.Since(t0)
	refSink += acc
	return d
}

// The loopback kernel is the second frozen piece of work: round trips of
// 1 KB over a loopback TCP connection to an echo goroutine. Work that
// crosses into the kernel — socket reads and writes, file writes, fsync,
// netpoller wake-ups — slows down under a noisy neighbour by about twice
// what user-space work does (measured: +60 % against +24 % in the same
// episode), so the service ops, which do both, are calibrated against a
// fixed blend of the two kernels. Simulation ops never cross into the
// kernel and use the CPU kernel alone.
const (
	loopNominalMs   = 0.6
	loopRoundTrips  = 100
	loopPayloadSize = 1024
)

// loopback owns the echo connection of the loopback kernel.
type loopback struct {
	ln     net.Listener
	conn   net.Conn
	echoed chan struct{}
	buf    [loopPayloadSize]byte
}

func newLoopback() (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{ln: ln, echoed: make(chan struct{})}
	go func() {
		defer close(l.echoed)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var buf [loopPayloadSize]byte
		for {
			if _, err := io.ReadFull(c, buf[:]); err != nil {
				return
			}
			if _, err := c.Write(buf[:]); err != nil {
				return
			}
		}
	}()
	l.conn, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-l.echoed
		return nil, err
	}
	return l, nil
}

// close ends the echo goroutine and waits for it.
func (l *loopback) close() {
	l.conn.Close()
	l.ln.Close()
	<-l.echoed
}

// run executes the loopback kernel once and returns its wall time.
func (l *loopback) run() (time.Duration, error) {
	t0 := time.Now()
	for i := 0; i < loopRoundTrips; i++ {
		if _, err := l.conn.Write(l.buf[:]); err != nil {
			return 0, err
		}
		if _, err := io.ReadFull(l.conn, l.buf[:]); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// reading is one look at the machine's speed: the median of a few runs of
// the CPU kernel and, when a loopback kernel is attached, of that too.
type reading struct {
	cpuMs  float64
	loopMs float64
}

// machine takes readings. loop is nil for workloads that never cross into
// the kernel.
type machine struct {
	loop *loopback
}

// read runs each kernel n times back to back and returns the medians. One
// run brackets short ops; ops longer than half a second get ≥10 ms of
// reference on each side so the bracket is not a single 1 ms glimpse of
// the machine.
func (m machine) read(n int) (reading, error) {
	cpu := make([]float64, n)
	for i := range cpu {
		cpu[i] = refRun().Seconds() * 1e3
	}
	r := reading{cpuMs: median(cpu)}
	if m.loop != nil {
		loop := make([]float64, n)
		for i := range loop {
			d, err := m.loop.run()
			if err != nil {
				return reading{}, fmt.Errorf("loopback kernel: %w", err)
			}
			loop[i] = d.Seconds() * 1e3
		}
		r.loopMs = median(loop)
	}
	return r, nil
}

// calibrate converts a wall-clock duration into calibrated time: what the
// op would have taken had the machine run the reference kernels in exactly
// their nominal times while the op ran. The machine's slowdown is the mean
// of the two adjacent readings; kernelShare in [0,1] is the weight of the
// loopback kernel in the geometric blend of the two slowdowns.
func calibrate(wall float64, before, after reading, kernelShare float64) float64 {
	slow := (before.cpuMs + after.cpuMs) / 2 / refNominalMs
	if kernelShare > 0 {
		loop := (before.loopMs + after.loopMs) / 2 / loopNominalMs
		slow = math.Pow(slow, 1-kernelShare) * math.Pow(loop, kernelShare)
	}
	return wall / slow
}
