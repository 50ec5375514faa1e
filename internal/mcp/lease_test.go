package mcp

import (
	"fmt"
	"runtime"
	"testing"

	"gmsim/internal/sim"
)

// The frame lease (leaseFrame / releaseFrame) under the two hazards that
// used to keep frames off a free list: a retransmission timer that fires
// while the first copy is still in flight, and the check that makes a
// use-after-release visible. Every delivered frame goes back to its
// receiver's list.

// spuriousRig is a two-node rig whose retransmission timeout is far below
// one round trip and never gives up, so every send is retransmitted at least
// once before its ack arrives (the tests check that it was).
func spuriousRig(t *testing.T, reliableBarrier bool) *rig {
	return newRig(t, 2, func(_ int, cfg *Config) {
		cfg.ReliableBarrier = reliableBarrier
		cfg.Params.RetransTimeout = 4 * sim.Microsecond
		cfg.Params.RetransBackoffMax = 0
		cfg.Params.RetransJitterPct = 0
		cfg.Params.MaxRetries = 0
	})
}

// checkLeaseQuiescent asserts what must hold on every NIC once the run has
// drained: no protocol error (a released frame that turned up again would be
// one), nothing left in flight, and free lists that were actually in use
// (frames circulate — a NIC that answered everything it received may end
// with none — so that part is about their sum).
func checkLeaseQuiescent(t *testing.T, r *rig) {
	t.Helper()
	pooled := 0
	for i, m := range r.mcps {
		pooled += len(m.frames)
		if e := m.Stats().ProtocolErrors; e != 0 {
			t.Errorf("node %d: %d protocol errors", i, e)
		}
		for peer, c := range m.conns {
			if len(c.sentList) != 0 || len(c.barrierSent) != 0 {
				t.Errorf("node %d -> %d: %d data / %d barrier frames still unacked",
					i, peer, len(c.sentList), len(c.barrierSent))
			}
		}
		if len(m.frames) > framePoolCap {
			t.Errorf("node %d: free list holds %d frames, cap %d", i, len(m.frames), framePoolCap)
		}
		for _, f := range m.frames {
			if f.Kind != releasedFrame || f.Data != nil {
				t.Errorf("node %d: pooled frame not stamped: %v", i, f)
			}
		}
	}
	if pooled == 0 {
		t.Error("every free list is empty: no frame was returned")
	}
}

func TestSpuriousRetransmitDataOnPooledPath(t *testing.T) {
	r := spuriousRig(t, false)
	r.open(t, 0, 2)
	r.open(t, 1, 2)
	const msgs = 12
	r.provide(t, 1, 2, msgs)
	for i := 0; i < msgs; i++ {
		i := i
		r.s.At(sim.Time(i)*100*sim.Microsecond, func() {
			if err := r.mcps[0].PostSendToken(SendToken{
				SrcPort: 2, Dst: Endpoint{Node: 1, Port: 2},
				Data: []byte(fmt.Sprintf("payload-%02d", i)),
			}); err != nil {
				t.Error(err)
			}
		})
	}
	r.s.Run()

	got := r.recvEvents(1, 2)
	if len(got) != msgs {
		t.Fatalf("delivered %d messages, want %d", len(got), msgs)
	}
	for i, ev := range got {
		if want := fmt.Sprintf("payload-%02d", i); string(ev.Data) != want {
			t.Errorf("message %d: payload %q, want %q", i, ev.Data, want)
		}
	}
	sent := 0
	for _, ev := range r.events[key(0, 2)] {
		if ev.Kind == SentEvent {
			if ev.Failed {
				t.Errorf("sent event %d failed", sent)
			}
			sent++
		}
	}
	if sent != msgs {
		t.Errorf("%d sent events, want %d", sent, msgs)
	}
	s0, s1 := r.mcps[0].Stats(), r.mcps[1].Stats()
	if s0.Retransmissions < msgs {
		t.Errorf("%d retransmissions: the timer did not fire with the first copy in flight", s0.Retransmissions)
	}
	if s1.Duplicates == 0 || s1.DataDelivered != msgs {
		t.Errorf("receiver: %d duplicates, %d delivered (want > 0, %d)", s1.Duplicates, s1.DataDelivered, msgs)
	}
	checkLeaseQuiescent(t, r)
}

func TestSpuriousRetransmitReliableBarrierOnPooledPath(t *testing.T) {
	r := spuriousRig(t, true)
	r.open(t, 0, 2)
	r.open(t, 1, 2)
	const rounds = 10
	for i := 0; i < rounds; i++ {
		r.s.At(sim.Time(i)*sim.Millisecond, func() {
			postPEBarrier(t, r, 0, 2, []Endpoint{{Node: 1, Port: 2}})
			postPEBarrier(t, r, 1, 2, []Endpoint{{Node: 0, Port: 2}})
		})
	}
	r.s.Run()

	for node := 0; node < 2; node++ {
		if got := r.barrierDone(node, 2); got != rounds {
			t.Errorf("node %d: %d completions, want %d", node, got, rounds)
		}
		st := r.mcps[node].Stats()
		if st.BarrierDups == 0 || st.BarrierResends < rounds {
			t.Errorf("node %d: %d barrier dups, %d resends — no spurious retransmit happened",
				node, st.BarrierDups, st.BarrierResends)
		}
		if st.BarrierUnexp > rounds {
			t.Errorf("node %d: %d unexpected records for %d barriers: a duplicate got through",
				node, st.BarrierUnexp, rounds)
		}
	}
	checkLeaseQuiescent(t, r)
}

// A frame that arrives after it was returned is a protocol error, not a
// message; returning it twice is a bug the firmware refuses to absorb.
func TestReleasedFrameIsChecked(t *testing.T) {
	r := newRig(t, 1, nil)
	m := r.mcps[0]
	f := m.leaseFrame(&Frame{Kind: BarrierPEFrame, Data: []byte{1}})
	m.releaseFrame(f)
	if f.Kind != releasedFrame || f.Data != nil {
		t.Fatalf("released frame not stamped: %v", f)
	}
	m.receiveFrame(f)
	r.s.Run()
	if got := m.Stats().ProtocolErrors; got != 1 {
		t.Fatalf("ProtocolErrors = %d after receiving a released frame, want 1", got)
	}
	if again := m.leaseFrame(&Frame{Kind: AckFrame}); again != f || again.Kind != AckFrame {
		t.Fatalf("lease did not reuse the returned frame")
	}
	m.releaseFrame(f)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	m.releaseFrame(f)
}

// TestRetransmitAllocatesNothingPerFrame runs reliable PE barriers between
// two NICs over a lossy wire with a retransmission timeout far below one
// round trip, so frames go out several times, and counts the heap objects
// the barriers allocate once the pools are warm. A dropped packet takes its
// packet and its wire frame with it, and the pools replace them: two objects
// a drop, plus the odd frame a full free list let go, is all the barriers
// may allocate, under three a drop. Each retransmission's task carries a
// leased snapshot of its frame, so the retransmissions themselves allocate
// nothing: there are at least twice as many as drops, so one object each
// would put the count past four a drop.
func TestRetransmitAllocatesNothingPerFrame(t *testing.T) {
	r := newRig(t, 2, func(_ int, cfg *Config) {
		cfg.ReliableBarrier = true
		cfg.Params.RetransTimeout = 4 * sim.Microsecond
		cfg.Params.RetransBackoffMax = 0
		cfg.Params.RetransJitterPct = 0
		cfg.Params.MaxRetries = 0
	})
	done := 0
	for node := range r.mcps {
		if err := r.mcps[node].OpenPort(2, func(ev *HostEvent) {
			if ev.Kind == BarrierDoneEvent {
				done++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	r.fab.SetFaultHook(randomLoss(0.1, 7))
	toks := [2]BarrierToken{
		{Alg: PE, SrcPort: 2, Peers: []Endpoint{{Node: 1, Port: 2}}},
		{Alg: PE, SrcPort: 2, Peers: []Endpoint{{Node: 0, Port: 2}}},
	}
	barriers := func(n int) {
		for range n {
			for node, m := range r.mcps {
				if err := m.credit(2, BarrierBuffer); err != nil {
					t.Fatal(err)
				}
				if err := m.PostBarrierToken(&toks[node]); err != nil {
					t.Fatal(err)
				}
			}
			r.s.Run()
		}
	}
	resends := func() (n int64) {
		for _, m := range r.mcps {
			n += m.Stats().BarrierResends
		}
		return n
	}
	barriers(50) // warm the pools, slabs and queues
	const rounds = 200
	drops, sent := r.fab.Dropped(), resends()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	barriers(rounds)
	runtime.ReadMemStats(&after)
	drops, sent = r.fab.Dropped()-drops, resends()-sent
	allocs := int64(after.Mallocs - before.Mallocs)
	t.Logf("%d barriers: %d frames retransmitted, %d packets dropped, %d objects allocated", rounds, sent, drops, allocs)
	if done != 2*(50+rounds) {
		t.Fatalf("%d completions, want %d", done, 2*(50+rounds))
	}
	if sent < 2*drops {
		t.Fatalf("%d retransmissions against %d drops: the rig does not retransmit spuriously", sent, drops)
	}
	if allocs >= 3*drops {
		t.Errorf("%d objects for %d drops and %d retransmissions: more than the drops account for", allocs, drops, sent)
	}
}
