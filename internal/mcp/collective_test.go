package mcp

import (
	"bytes"
	"slices"
	"testing"

	"gmsim/internal/network"
	"gmsim/internal/sim"
)

func TestReduceOpCombine(t *testing.T) {
	enc := func(v int64) []byte {
		b := make([]byte, 8)
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		return b
	}
	cases := []struct {
		op      ReduceOp
		a, b, w int64
	}{
		{OpSum, 3, 4, 7},
		{OpSum, -3, 4, 1},
		{OpMin, 3, 4, 3},
		{OpMin, -3, 4, -3},
		{OpMax, 3, 4, 4},
		{OpBAnd, 0b1100, 0b1010, 0b1000},
		{OpBOr, 0b1100, 0b1010, 0b1110},
	}
	for _, c := range cases {
		dst := enc(c.a)
		c.op.Combine(dst, enc(c.b))
		if !bytes.Equal(dst, enc(c.w)) {
			t.Errorf("%v(%d,%d): got %v want %v", c.op, c.a, c.b, dst, enc(c.w))
		}
	}
}

func TestCombineRaggedVectors(t *testing.T) {
	dst := make([]byte, 16) // 2 elements
	src := make([]byte, 8)  // 1 element
	src[0] = 5
	OpSum.Combine(dst, src)
	if dst[0] != 5 || dst[8] != 0 {
		t.Fatalf("ragged combine wrong: %v", dst)
	}
	// Partial trailing bytes are ignored.
	OpSum.Combine(dst[:12], src)
	if dst[0] != 10 {
		t.Fatal("whole-element prefix not combined")
	}
}

func TestCollOpStrings(t *testing.T) {
	if Broadcast.String() != "broadcast" || Reduce.String() != "reduce" ||
		AllReduce.String() != "allreduce" || CollOp(9).String() == "" {
		t.Fatal("CollOp strings wrong")
	}
	if OpSum.String() != "sum" || OpBOr.String() != "bor" || ReduceOp(9).String() == "" {
		t.Fatal("ReduceOp strings wrong")
	}
}

// postColl posts a collective token with a buffer.
func postColl(t *testing.T, r *rig, node int, tok *CollToken) {
	t.Helper()
	if err := r.mcps[node].PostCollectiveBuffer(2); err != nil {
		t.Fatal(err)
	}
	tok.SrcPort = 2
	if err := r.mcps[node].PostCollectiveToken(tok); err != nil {
		t.Fatal(err)
	}
}

func (r *rig) collDone(node, port int) [][]byte {
	var out [][]byte
	for _, ev := range r.events[key(node, port)] {
		if ev.Kind == CollDoneEvent {
			out = append(out, ev.Data)
		}
	}
	return out
}

func TestFirmwareBroadcastTwoNodes(t *testing.T) {
	r := newRig(t, 2, nil)
	r.open(t, 0, 2)
	r.open(t, 1, 2)
	payload := []byte("fw-bcast")
	postColl(t, r, 0, &CollToken{Op: Broadcast, Root: true,
		Children: []Endpoint{{Node: 1, Port: 2}}, Value: payload})
	postColl(t, r, 1, &CollToken{Op: Broadcast, Parent: Endpoint{Node: 0, Port: 2}})
	r.s.Run()
	for node := 0; node < 2; node++ {
		done := r.collDone(node, 2)
		if len(done) != 1 || !bytes.Equal(done[0], payload) {
			t.Fatalf("node %d completions = %v", node, done)
		}
	}
}

func TestFirmwareCollectiveValidation(t *testing.T) {
	r := newRig(t, 1, nil)
	r.open(t, 0, 2)
	tok := &CollToken{Op: Broadcast, Root: true, SrcPort: 2}
	if err := r.mcps[0].PostCollectiveToken(tok); err == nil {
		t.Fatal("collective without buffer should be rejected")
	}
	if err := r.mcps[0].PostCollectiveBuffer(7); err == nil {
		t.Fatal("buffer for closed port should be rejected")
	}
	if err := r.mcps[0].PostCollectiveToken(&CollToken{Op: Broadcast, SrcPort: 5}); err == nil {
		t.Fatal("collective from closed port should be rejected")
	}
	// Double post.
	if err := r.mcps[0].PostCollectiveBuffer(2); err != nil {
		t.Fatal(err)
	}
	if err := r.mcps[0].PostCollectiveBuffer(2); err != nil {
		t.Fatal(err)
	}
	root := &CollToken{Op: Reduce, Root: true, SrcPort: 2,
		Children: []Endpoint{{Node: 0, Port: 3}}, Value: []byte{1, 0, 0, 0, 0, 0, 0, 0}}
	if err := r.mcps[0].PostCollectiveToken(root); err != nil {
		t.Fatal(err)
	}
	if err := r.mcps[0].PostCollectiveToken(&CollToken{Op: Broadcast, Root: true, SrcPort: 2}); err == nil {
		t.Fatal("second in-flight collective should be rejected")
	}
}

func TestCollectiveClosedPortRecordThenReject(t *testing.T) {
	// A reduce partial sent to a not-yet-open parent port is recorded,
	// rejected when the port opens, and resent — the Section 3.2 protocol
	// applied to collectives.
	r := newRig(t, 2, nil)
	r.open(t, 1, 2)
	// Child (node 1) reduces toward node 0 port 2, which is closed.
	child := &CollToken{Op: Reduce, Parent: Endpoint{Node: 0, Port: 2},
		Value: []byte{7, 0, 0, 0, 0, 0, 0, 0}}
	postColl(t, r, 1, child)
	r.s.RunUntil(300 * sim.Microsecond)
	if r.mcps[0].Stats().ClosedPortRecs == 0 {
		t.Fatal("partial to closed port not recorded")
	}
	// Child has already completed locally (Reduce semantics) but must
	// still answer the reject. Keep its port open. Open the root now.
	r.open(t, 0, 2)
	root := &CollToken{Op: Reduce, Root: true,
		Children: []Endpoint{{Node: 1, Port: 2}}, Value: []byte{5, 0, 0, 0, 0, 0, 0, 0}}
	postColl(t, r, 0, root)
	r.s.Run()
	done := r.collDone(0, 2)
	if len(done) != 1 {
		t.Fatalf("root completions = %d", len(done))
	}
	if done[0][0] != 12 { // 7 + 5
		t.Fatalf("reduced value = %d, want 12", done[0][0])
	}
	if r.mcps[1].Stats().BarrierResends == 0 {
		t.Fatal("child did not resend after reject")
	}
}

// TestLatePortRejectsBothFamilies: a collective frame and a PE barrier frame
// reach a port that is not open yet. When it opens, both must be rejected and
// resent, and both operations must complete. The closed-port record holds one
// message per source endpoint and family, so it keeps both when one peer sent
// them ("one peer") as well as when the rank's tree neighbour is not its PE
// partner ("tree child, PE partner").
func TestLatePortRejectsBothFamilies(t *testing.T) {
	cases := []struct {
		name      string
		nodes     int
		child, pe int // node 0's tree child and PE partner
	}{
		{"one peer", 2, 1, 1},
		{"tree child, PE partner", 3, 1, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t, c.nodes, nil)
			child, pe := Endpoint{Node: network.NodeID(c.child), Port: 2}, Endpoint{Node: network.NodeID(c.pe), Port: 2}
			late := Endpoint{Node: 0, Port: 2}
			r.open(t, c.child, 2)
			if c.pe != c.child {
				r.open(t, c.pe, 2)
			}
			// The collective frame goes first, the barrier frame after it.
			postColl(t, r, c.child, &CollToken{Op: Reduce, Parent: late, Value: []byte{7, 0, 0, 0, 0, 0, 0, 0}})
			postPEBarrier(t, r, c.pe, 2, []Endpoint{late})
			r.s.RunUntil(300 * sim.Microsecond)
			if got := r.mcps[0].Stats().ClosedPortRecs; got != 2 {
				t.Fatalf("%d messages to the closed port recorded, want 2", got)
			}
			r.open(t, 0, 2)
			postColl(t, r, 0, &CollToken{Op: Reduce, Root: true, Children: []Endpoint{child}, Value: []byte{5, 0, 0, 0, 0, 0, 0, 0}})
			postPEBarrier(t, r, 0, 2, []Endpoint{pe})
			r.s.Run()
			if done := r.collDone(0, 2); len(done) != 1 || done[0][0] != 12 {
				t.Fatalf("root's reduce completions = %v, want one of 7 + 5", done)
			}
			if r.barrierDone(0, 2) != 1 || r.barrierDone(c.pe, 2) != 1 {
				t.Fatalf("barrier completions = %d/%d, want 1/1", r.barrierDone(0, 2), r.barrierDone(c.pe, 2))
			}
			if got := r.mcps[0].Stats().BarrierRejects; got != 2 {
				t.Errorf("late port sent %d rejects, want 2", got)
			}
			resends := r.mcps[c.child].Stats().BarrierResends
			if c.pe != c.child {
				resends += r.mcps[c.pe].Stats().BarrierResends
			}
			if resends != 2 {
				t.Errorf("%d resends, want 2", resends)
			}
		})
	}
}

func TestCollectiveQueueCap(t *testing.T) {
	// Overflowing the unexpected-collective queue drops messages and
	// counts protocol errors rather than corrupting state.
	r := newRig(t, 2, func(i int, cfg *Config) { cfg.CollUnexpCap = 2 })
	r.open(t, 0, 2)
	r.open(t, 1, 2)
	// Node 0 fires 4 broadcasts at node 1, which never posts a token.
	for i := 0; i < 4; i++ {
		postColl(t, r, 0, &CollToken{Op: Broadcast, Root: true,
			Children: []Endpoint{{Node: 1, Port: 2}}, Value: []byte{byte(i)}})
		r.s.Run()
	}
	st := r.mcps[1].Stats()
	if st.ProtocolErrors < 2 {
		t.Fatalf("queue overflow not detected: %+v", st)
	}
	// The first two are still consumable in order.
	postColl(t, r, 1, &CollToken{Op: Broadcast, Parent: Endpoint{Node: 0, Port: 2}})
	r.s.Run()
	done := r.collDone(1, 2)
	if len(done) != 1 || done[0][0] != 0 {
		t.Fatalf("queued broadcast consumed wrong: %v", done)
	}
}

func TestReliableCollectiveSurvivesLoss(t *testing.T) {
	r := newRig(t, 2, func(i int, cfg *Config) { cfg.ReliableBarrier = true })
	r.open(t, 0, 2)
	r.open(t, 1, 2)
	r.fab.SetFaultHook(randomLoss(0.2, 31))
	payload := []byte{9, 0, 0, 0, 0, 0, 0, 0}
	postColl(t, r, 0, &CollToken{Op: AllReduce, Reduce: OpSum, Root: true,
		Children: []Endpoint{{Node: 1, Port: 2}}, Value: payload})
	postColl(t, r, 1, &CollToken{Op: AllReduce, Reduce: OpSum,
		Parent: Endpoint{Node: 0, Port: 2}, Value: payload})
	r.s.Run()
	for node := 0; node < 2; node++ {
		done := r.collDone(node, 2)
		if len(done) != 1 || done[0][0] != 18 {
			t.Fatalf("node %d reliable allreduce = %v", node, done)
		}
	}
}

func TestNoBufferNackKeepsConnectionAlive(t *testing.T) {
	// A receiver without buffers must not cause the sender to declare the
	// connection dead, no matter how long the starvation lasts.
	r := newRig(t, 2, func(i int, cfg *Config) {
		cfg.Params.MaxRetries = 5 // tight, to prove no-buffer rounds don't count
	})
	r.open(t, 0, 2)
	r.open(t, 1, 2) // no receive buffers
	if err := r.mcps[0].PostSendToken(SendToken{
		SrcPort: 2, Dst: Endpoint{Node: 1, Port: 2}, Data: []byte("x"), Tag: "t",
	}); err != nil {
		t.Fatal(err)
	}
	// 20 retransmission rounds' worth of time: far beyond MaxRetries.
	r.s.RunUntil(20 * sim.Millisecond)
	if r.mcps[0].Stats().ConnFailures != 0 {
		t.Fatal("no-buffer starvation killed the connection")
	}
	r.provide(t, 1, 2, 1)
	r.s.Run()
	if len(r.recvEvents(1, 2)) != 1 {
		t.Fatal("message not delivered after buffer provided")
	}
	// Exactly one delivery, no duplicates surfaced to the host.
	for _, ev := range r.events[key(0, 2)] {
		if ev.Kind == SentEvent && ev.Failed {
			t.Fatal("send reported failed despite eventual delivery")
		}
	}
}

func TestConnectionDeathReportsFailedSends(t *testing.T) {
	// Data to a closed port never gets acked or no-buffer-nacked: after
	// MaxRetries the tokens come back marked failed.
	r := newRig(t, 2, func(i int, cfg *Config) { cfg.Params.MaxRetries = 3 })
	r.open(t, 0, 2)
	// node 1 port never opened
	if err := r.mcps[0].PostSendToken(SendToken{
		SrcPort: 2, Dst: Endpoint{Node: 1, Port: 2}, Data: []byte("x"), Tag: "dead",
	}); err != nil {
		t.Fatal(err)
	}
	r.s.Run()
	if r.mcps[0].Stats().ConnFailures != 1 {
		t.Fatalf("ConnFailures = %d", r.mcps[0].Stats().ConnFailures)
	}
	var failed int
	for _, ev := range r.events[key(0, 2)] {
		if ev.Kind == SentEvent && ev.Failed && ev.Tag == "dead" {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("failed completions = %d, want 1", failed)
	}
}

func TestProcessRestartScenario(t *testing.T) {
	// The Section 3.2 motivating story: process A (node 0) barriers with
	// process B (node 1); B dies before opening its port; A dies too.
	// New processes A' and B' reuse the same endpoints. B' initiates a
	// barrier — it must NOT be satisfied by A's stale message; only when
	// A' actually arrives may the barrier complete.
	r := newRig(t, 2, nil)
	r.open(t, 0, 2) // process A
	postPEBarrier(t, r, 0, 2, []Endpoint{{Node: 1, Port: 2}})
	r.s.RunUntil(200 * sim.Microsecond)
	// A's message sits recorded against node 1's closed port. A dies.
	if err := r.mcps[0].ClosePort(2); err != nil {
		t.Fatal(err)
	}
	// A' and B' start, reusing the endpoints.
	r.open(t, 0, 2) // A' (epoch bumped)
	r.open(t, 1, 2) // B' — triggers the reject of A's stale message
	postPEBarrier(t, r, 1, 2, []Endpoint{{Node: 0, Port: 2}})
	r.s.RunUntil(600 * sim.Microsecond)
	if got := r.barrierDone(1, 2); got != 0 {
		t.Fatalf("B' completed %d barrier(s) off A's stale message", got)
	}
	// Now A' genuinely joins: both complete.
	postPEBarrier(t, r, 0, 2, []Endpoint{{Node: 1, Port: 2}})
	r.s.Run()
	if r.barrierDone(0, 2) != 1 || r.barrierDone(1, 2) != 1 {
		t.Fatalf("A'/B' barrier incomplete: %d/%d",
			r.barrierDone(0, 2), r.barrierDone(1, 2))
	}
}

func TestCollectivePortAccessors(t *testing.T) {
	r := newRig(t, 1, nil)
	r.open(t, 0, 2)
	s := &r.mcps[0].Port(2).slots[collSlot]
	if s.bufs != 0 || s.live || s.pending {
		t.Fatal("fresh port collective state wrong")
	}
	if err := r.mcps[0].PostCollectiveBuffer(2); err != nil {
		t.Fatal(err)
	}
	if s.bufs != 1 {
		t.Fatalf("bufs = %d", s.bufs)
	}
	if b := r.mcps[0].Port(2).slots[barrierSlot].bufs; b != 0 {
		t.Fatalf("a collective buffer landed in the barrier slot: %d", b)
	}
}

// TestCollTokenHelpers checks the gather record both token kinds share once
// read into a slot.
func TestCollTokenHelpers(t *testing.T) {
	s := &treeState{treeOp: treeOp{children: []Endpoint{{Node: 1, Port: 2}, {Node: 2, Port: 2}}}}
	s.got = []bool{true, false}
	if i := slices.Index(s.got, false); i != 1 || slices.Contains(s.got[i+1:], false) {
		t.Fatalf("got = %v: want exactly child 1 outstanding", s.got)
	}
	if slices.Index(s.children, Endpoint{Node: 2, Port: 2}) != 1 {
		t.Fatal("child index wrong")
	}
	if slices.Index(s.children, Endpoint{Node: 9, Port: 2}) != -1 {
		t.Fatal("child index for non-child should be -1")
	}
}
