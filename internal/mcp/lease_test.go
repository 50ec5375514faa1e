package mcp

import (
	"fmt"
	"runtime"
	"testing"

	"gmsim/internal/network"
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
	return newRig(t, 2, func(cfg *Config) {
		cfg.ReliableBarrier = reliableBarrier
		cfg.Params.RetransTimeout = 4 * sim.Microsecond
		cfg.Params.RetransBackoffMax = 0
		cfg.Params.RetransJitterPct = 0
		cfg.Params.MaxRetries = 0
	})
}

// checkLeaseQuiescent asserts what must hold on every NIC once the run has
// drained: no protocol error (a released frame that turned up again would be
// one), nothing left in flight, and a free list, the block's, that was
// actually in use, within its cap and holding only stamped frames.
func checkLeaseQuiescent(t *testing.T, r *rig) {
	t.Helper()
	for i, m := range r.mcps {
		if e := m.Stats().ProtocolErrors; e != 0 {
			t.Errorf("node %d: %d protocol errors", i, e)
		}
		m.eachConn(func(c *Connection) {
			if len(c.sentList) != 0 || len(c.barrierSent) != 0 {
				t.Errorf("node %d -> %d: %d data / %d barrier frames still unacked",
					i, c.peer, len(c.sentList), len(c.barrierSent))
			}
		})
	}
	frames := r.mcps[0].frames
	if len(frames) == 0 {
		t.Error("the free list is empty: no frame was returned")
	}
	if len(frames) > framePoolCap*len(r.mcps) {
		t.Errorf("free list holds %d frames, cap %d", len(frames), framePoolCap*len(r.mcps))
	}
	for _, f := range frames {
		if f.Kind != releasedFrame || f.Data != nil {
			t.Errorf("pooled frame not stamped: %v", f)
		}
	}
}

// TestBlockSharesPools: the cards of a block lease from one frame pool and
// one set of Connection chunks. A frame leased on one card and released on
// the other is handed out once, to one holder; the pool keeps framePoolCap
// frames a card and lets the rest go; lease and release then allocate
// nothing. Connection cells come in chunks of one cell a card, each pointing
// back to its card, never one cell for two connections.
func TestBlockSharesPools(t *testing.T) {
	r := newRig(t, 2, nil)
	a, b := r.mcps[0], r.mcps[1]
	if a.shared != b.shared {
		t.Fatal("the cards of one block do not share their pools")
	}
	f := a.leaseFrame(&Frame{Kind: AckFrame})
	b.releaseFrame(f)
	if f.Kind != releasedFrame {
		t.Fatalf("released frame not stamped: %v", f)
	}
	if g, h := a.leaseFrame(&Frame{Kind: AckFrame}), b.leaseFrame(&Frame{Kind: NackFrame}); g != f || h == f {
		t.Fatalf("the frame released on B went to %p and %p, want the first lease only (%p)", g, h, f)
	}
	const n = 3 * framePoolCap
	held := make(map[*Frame]bool, n)
	var order []*Frame
	for i := range n {
		card := r.mcps[i%2]
		g := card.leaseFrame(&Frame{Kind: DataFrame, Seq: uint32(i)})
		if held[g] {
			t.Fatalf("lease %d handed out a frame already held", i)
		}
		held[g] = true
		order = append(order, g)
	}
	for i, g := range order {
		r.mcps[(i+1)%2].releaseFrame(g)
	}
	if got, want := len(a.frames), 2*framePoolCap; got != want {
		t.Fatalf("after %d releases the pool holds %d frames, want its cap %d", n, got, want)
	}
	for i := range 2 * framePoolCap {
		if g := r.mcps[i%2].leaseFrame(&Frame{Kind: AckFrame}); !held[g] || g.Kind != AckFrame {
			t.Fatalf("lease %d after the releases: a frame not from the pool, or not filled in", i)
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		b.releaseFrame(a.leaseFrame(&Frame{Kind: AckFrame}))
	}); avg != 0 {
		t.Errorf("lease on A, release on B allocates %.2f per run, want 0", avg)
	}

	r = newRig(t, 4, nil)
	cells := make(map[*Connection]bool)
	for _, m := range r.mcps {
		for peer := range len(r.mcps) {
			c := m.conn(network.NodeID(peer))
			if cells[c] || c.m != m || c.peer != network.NodeID(peer) {
				t.Fatalf("node %d -> %d: cell shared, or naming card %d and peer %d", m.node, peer, c.m.node, c.peer)
			}
			cells[c] = true
			if m.conn(network.NodeID(peer)) != c {
				t.Fatalf("node %d -> %d: a second cell for one connection", m.node, peer)
			}
		}
	}
	chunks := r.mcps[0].shared.conns
	if len(chunks) != 4 {
		t.Fatalf("16 connections of a 4-card block took %d chunks, want 4", len(chunks))
	}
	for i, ch := range chunks {
		if len(ch) != 4 || cap(ch) != 4 {
			t.Errorf("chunk %d: %d cells of %d, want 4 of 4", i, len(ch), cap(ch))
		}
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
// the barriers allocate once the pools are warm. A dropped packet and its
// wire frame go back to the pools (network.Fabric.drop, MCP.HandleDropped),
// and each retransmission's task carries a leased snapshot of its frame, so
// neither drops nor retransmissions allocate: what is left is the frames a
// full free list lets go when a burst of retransmissions has more in flight
// than the block's cap, about 100 objects in all. The bound does not grow
// with the drops (3 294) or the retransmissions (9 366): one object per 25
// drops fails it. It read 6 888 objects, two a drop, while a lost packet
// and its frame stayed off the pools.
func TestRetransmitAllocatesNothingPerFrame(t *testing.T) {
	r := newRig(t, 2, func(cfg *Config) {
		cfg.ReliableBarrier = true
		cfg.Params.RetransTimeout = 4 * sim.Microsecond
		cfg.Params.RetransBackoffMax = 0
		cfg.Params.RetransJitterPct = 0
		cfg.Params.MaxRetries = 0
	})
	done := 0
	for node := range r.mcps {
		if err := r.mcps[node].OpenPort(2, hostFunc(func(ev *HostEvent) {
			if ev.Kind == BarrierDoneEvent {
				done++
			}
		})); err != nil {
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
	if allocs >= 128 {
		t.Errorf("%d objects for %d drops and %d retransmissions, want < 128", allocs, drops, sent)
	}
}
