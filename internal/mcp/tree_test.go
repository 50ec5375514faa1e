package mcp

import (
	"testing"

	"gmsim/internal/network"
	"gmsim/internal/sim"
)

// The sharing itself: a GB barrier and an AllReduce are the same walk, so
// the same scripted arrivals must drive both through the same steps.

// walkStep is one scripted event at the node under test: its own token
// being posted, or a frame arriving from a tree neighbour.
type walkStep int

const (
	stepToken walkStep = iota
	stepUp2            // child 2's up frame
	stepUp3            // child 3's up frame
	stepDown           // the parent's release
)

// TestSameWalkBarrierAndAllReduce drives node 1 of a four-node rig — parent
// 0, children 2 and 3 — with hand-built frames, 100 µs apart so each is
// handled before the next arrives. Only node 1's port is open: the other
// NICs are sinks that (in reliable mode) acknowledge what it sends. Every
// script runs once as a GB barrier and once as an AllReduce; both must
// complete exactly once, send one frame up and two down, and make the same
// number of unexpected records and duplicate drops.
func TestSameWalkBarrierAndAllReduce(t *testing.T) {
	for _, sc := range []struct {
		name        string
		reliable    bool
		steps       []walkStep
		unexp, dups int64
	}{
		{"all late", false, []walkStep{stepToken, stepUp2, stepUp3, stepDown}, 0, 0},
		{"all early", false, []walkStep{stepUp2, stepUp3, stepDown, stepToken}, 3, 0},
		{"child before token", false, []walkStep{stepUp2, stepToken, stepUp3, stepDown}, 1, 0},
		{"broadcast before gather sent", false, []walkStep{stepToken, stepUp2, stepDown, stepUp3}, 1, 0},
		{"duplicates", true, []walkStep{stepToken, stepUp2, stepUp2, stepUp3, stepDown, stepDown}, 0, 2},
	} {
		var walks [2]Stats
		for fam, name := range []string{"barrier", "allreduce"} {
			r := newRig(t, 4, func(cfg *Config) { cfg.ReliableBarrier = sc.reliable })
			r.open(t, 1, 2)
			m := r.mcps[1]
			parent := Endpoint{Node: 0, Port: 2}
			children := []Endpoint{{Node: 2, Port: 2}, {Node: 3, Port: 2}}
			one := []byte{1, 0, 0, 0, 0, 0, 0, 0}
			arrive := func(src Endpoint, kind FrameKind) {
				f := &Frame{Kind: kind, SrcNode: src.Node, SrcPort: src.Port, DstNode: 1, DstPort: 2}
				if fam == collSlot {
					f.Data = one
				}
				m.receiveFrame(f) // Seq 0: a repeat is a duplicate
			}
			for i, st := range sc.steps {
				r.s.At(sim.Time(i)*100*sim.Microsecond, func() {
					switch {
					case st == stepToken && fam == barrierSlot:
						postGB(t, r, 1, &BarrierToken{Parent: parent, Children: children})
					case st == stepToken:
						postColl(t, r, 1, &CollToken{Op: AllReduce, Parent: parent, Children: children, Value: one})
					case st == stepDown:
						arrive(parent, treeFamilies[fam].down)
					default:
						arrive(children[st-stepUp2], treeFamilies[fam].up)
					}
				})
			}
			r.s.Run()
			st := m.Stats()
			walks[fam] = st
			done, sent := int64(r.barrierDone(1, 2)), st.BarrierSent
			if fam == collSlot {
				got := r.collDone(1, 2)
				done, sent = int64(len(got)), st.CollSent
				// The release carries the result: this node relays it.
				if len(got) == 1 && got[0][0] != 1 {
					t.Errorf("%s/%s: delivered %v", sc.name, name, got[0])
				}
			}
			if done != 1 || sent != 3 || st.BarrierUnexp != sc.unexp || st.BarrierDups != sc.dups || st.ProtocolErrors != 0 {
				t.Errorf("%s/%s: %d completions, %d frames sent, %d unexpected, %d duplicates, %d protocol errors; want 1, 3, %d, %d, 0",
					sc.name, name, done, sent, st.BarrierUnexp, st.BarrierDups, st.ProtocolErrors, sc.unexp, sc.dups)
			}
			// One up to the parent, one release to each child.
			for _, dst := range []network.NodeID{0, 2, 3} {
				var got int64
				if sk := r.mcps[dst].Stats(); fam == barrierSlot {
					got = sk.BarrierRecvd
				} else {
					got = sk.CollRecvd
				}
				if got != 1 {
					t.Errorf("%s/%s: neighbour %d received %d frames, want 1", sc.name, name, dst, got)
				}
			}
		}
		b, c := walks[barrierSlot], walks[collSlot]
		if b.BarrierUnexp != c.BarrierUnexp || b.BarrierDups != c.BarrierDups ||
			b.BarrierSent != c.CollSent || b.BarrierRecvd != c.CollRecvd || b.BarrierCompleted != c.CollCompleted {
			t.Errorf("%s: the two families walked differently:\nbarrier   %+v\nallreduce %+v", sc.name, b, c)
		}
	}
}

// TestBarrierAndCollectiveShareAPort: a port's two slots are independent. A
// Reduce root is still gathering when its port runs a whole PE barrier (what
// the separator of a collective cell of experiments.Run does to a one-way
// collective's root); the barrier completes on its own, and the Reduce when
// the partial arrives.
func TestBarrierAndCollectiveShareAPort(t *testing.T) {
	r := newRig(t, 2, nil)
	r.open(t, 0, 2)
	r.open(t, 1, 2)
	val := func(v byte) []byte { return []byte{v, 0, 0, 0, 0, 0, 0, 0} }
	postColl(t, r, 0, &CollToken{Op: Reduce, Root: true, Children: []Endpoint{{Node: 1, Port: 2}}, Value: val(5)})
	r.s.RunUntil(100 * sim.Microsecond)
	p := r.mcps[0].Port(2)
	if !p.slots[collSlot].live || p.slots[barrierSlot].live {
		t.Fatal("reduce root should be gathering, with no barrier in flight")
	}
	postPEBarrier(t, r, 0, 2, []Endpoint{{Node: 1, Port: 2}})
	postPEBarrier(t, r, 1, 2, []Endpoint{{Node: 0, Port: 2}})
	r.s.RunUntil(400 * sim.Microsecond)
	if r.barrierDone(0, 2) != 1 || r.barrierDone(1, 2) != 1 {
		t.Fatalf("barrier completions = %d/%d with a reduce in flight", r.barrierDone(0, 2), r.barrierDone(1, 2))
	}
	if !p.slots[collSlot].live || len(r.collDone(0, 2)) != 0 {
		t.Fatal("the barrier disturbed the reduce still gathering on its port")
	}
	postColl(t, r, 1, &CollToken{Op: Reduce, Parent: Endpoint{Node: 0, Port: 2}, Value: val(7)})
	r.s.Run()
	if done := r.collDone(0, 2); len(done) != 1 || done[0][0] != 12 {
		t.Fatalf("reduce root completions = %v, want one with 12", done)
	}
	if e := r.mcps[0].Stats().ProtocolErrors + r.mcps[1].Stats().ProtocolErrors; e != 0 {
		t.Fatalf("%d protocol errors", e)
	}
}

// TestCollectiveRepairsAroundDeadPeers: failure.go works on the shared tree
// state, so what it does for a GB barrier it does for a collective. A dead
// child counts as gathered with nothing absorbed; a node whose parent died
// promotes itself and releases its subtree with what the subtree holds; the
// completion event names the dead.
func TestCollectiveRepairsAroundDeadPeers(t *testing.T) {
	r := newRig(t, 4, func(cfg *Config) {
		cfg.ReliableBarrier, cfg.DetectFailures = true, true
	})
	r.open(t, 1, 2)
	r.open(t, 2, 2)
	val := func(v byte) []byte { return []byte{v, 0, 0, 0, 0, 0, 0, 0} }
	// Node 1: parent 0 and child 3 never show up; child 2 does.
	postColl(t, r, 1, &CollToken{Op: AllReduce, Parent: Endpoint{Node: 0, Port: 2},
		Children: []Endpoint{{Node: 2, Port: 2}, {Node: 3, Port: 2}}, Value: val(1)})
	postColl(t, r, 2, &CollToken{Op: AllReduce, Parent: Endpoint{Node: 1, Port: 2}, Value: val(2)})
	r.s.RunUntil(200 * sim.Microsecond)
	if len(r.collDone(1, 2)) != 0 {
		t.Fatal("completed without its parent or its second child")
	}
	r.mcps[1].peerDied(3)
	r.s.RunUntil(400 * sim.Microsecond)
	if len(r.collDone(1, 2)) != 0 {
		t.Fatal("completed without its parent's release")
	}
	r.mcps[1].peerDied(0)
	r.s.Run()
	st := r.mcps[1].Stats()
	if st.BarrierPeersSkipped != 1 || st.BarrierRootPromotions != 1 || st.BarrierRepairs != 2 || st.ProtocolErrors != 0 {
		t.Fatalf("repair counters: %+v", st)
	}
	for node := 1; node <= 2; node++ {
		var evs []HostEvent
		for _, ev := range r.events[key(node, 2)] {
			if ev.Kind == CollDoneEvent {
				evs = append(evs, ev)
			}
		}
		if len(evs) != 1 || evs[0].Data[0] != 3 {
			t.Fatalf("node %d: completions %+v, want one with the subtree's sum 3", node, evs)
		}
		if node == 1 && len(evs[0].DeadNodes) != 2 {
			t.Fatalf("node 1 reported dead %v, want [0 3]", evs[0].DeadNodes)
		}
	}
}

// TestPERepairsAroundDeadPeers: the PE exchange's side of failure.go. Node 0
// exchanges with peers 1…5 in order. Peer 1 is dead before the token is
// processed and is skipped at start; peer 2 answers; peer 3 never does, so
// the watchdog probes it, and only it, until its death is declared — one
// repair, and the exchange moves on to peer 4. Peer 5 dies while the exchange
// waits on peer 3, which repairs nothing; it is skipped once peer 4 answers.
// The completion event names the dead.
func TestPERepairsAroundDeadPeers(t *testing.T) {
	r := newRig(t, 6, func(cfg *Config) {
		cfg.ReliableBarrier, cfg.DetectFailures = true, true
		cfg.Params.BarrierTimeout = 200 * sim.Microsecond
	})
	for node := 0; node <= 4; node++ {
		r.open(t, node, 2)
	}
	ep := func(n int) Endpoint { return Endpoint{Node: network.NodeID(n), Port: 2} }
	// probes[i] collects the destinations of probe frames seen in window i:
	// waiting on peer 3 (before its death at 300 µs), then on peer 4.
	var probes [2]map[network.NodeID]bool
	r.fab.SetFaultHook(faultHookFunc(func(_ network.LinkID, pk *network.Packet) network.Verdict {
		if f, ok := pk.Payload.(*Frame); ok && f.Kind == BarrierProbeFrame && f.SrcNode == 0 {
			w := 0
			if r.s.Now() >= 300*sim.Microsecond {
				w = 1
			}
			if probes[w] == nil {
				probes[w] = make(map[network.NodeID]bool)
			}
			probes[w][f.DstNode] = true
		}
		return network.Verdict{}
	}))
	m := r.mcps[0]
	m.peerDied(1)
	postPEBarrier(t, r, 0, 2, []Endpoint{ep(1), ep(2), ep(3), ep(4), ep(5)})
	postPEBarrier(t, r, 2, 2, []Endpoint{ep(0)})
	r.s.At(250*sim.Microsecond, func() {
		m.peerDied(5)
		if st := m.Stats(); st.BarrierRepairs != 0 || st.BarrierPeersSkipped != 1 {
			t.Errorf("a death the exchange is not waiting on repaired it: %+v", st)
		}
	})
	r.s.At(300*sim.Microsecond, func() {
		if r.barrierDone(0, 2) != 0 {
			t.Error("completed without peer 3")
		}
		m.peerDied(3)
		if st := m.Stats(); st.BarrierRepairs != 1 || st.BarrierPeersSkipped != 2 {
			t.Errorf("after peer 3 died: %+v", st)
		}
	})
	r.s.At(500*sim.Microsecond, func() { postPEBarrier(t, r, 4, 2, []Endpoint{ep(0)}) })
	r.s.Run()

	st := m.Stats()
	if st.BarrierRepairs != 1 || st.BarrierPeersSkipped != 3 || st.BarrierProbes != 2 || st.ProtocolErrors != 0 {
		t.Fatalf("repair counters: %+v", st)
	}
	for w, want := range []network.NodeID{3, 4} {
		if len(probes[w]) != 1 || !probes[w][want] {
			t.Errorf("window %d: probes went to %v, want only peer %d", w, probes[w], want)
		}
	}
	// Node 0 sent to peers 2, 3 and 4 only, and received from 2 and 4.
	for node, want := range map[int]int64{2: 1, 3: 2, 4: 2} {
		if got := r.mcps[node].Stats().BarrierRecvd; got != want {
			t.Errorf("peer %d received %d barrier-class frames, want %d", node, got, want)
		}
	}
	var evs []HostEvent
	for _, ev := range r.events[key(0, 2)] {
		if ev.Kind == BarrierDoneEvent {
			evs = append(evs, ev)
		}
	}
	if len(evs) != 1 || len(evs[0].DeadNodes) != 3 ||
		evs[0].DeadNodes[0] != 1 || evs[0].DeadNodes[1] != 3 || evs[0].DeadNodes[2] != 5 {
		t.Fatalf("completions %+v, want one naming [1 3 5]", evs)
	}
	if r.barrierDone(2, 2) != 1 || r.barrierDone(4, 2) != 1 || m.Port(2).slots[barrierSlot].live {
		t.Fatal("peers 2 and 4 should have completed, and node 0's barrier be over")
	}
}
