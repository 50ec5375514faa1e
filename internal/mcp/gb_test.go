package mcp

import (
	"testing"

	"gmsim/internal/network"
	"gmsim/internal/sim"
)

// postGB posts a GB token with a buffer.
func postGB(t *testing.T, r *rig, node int, tok *BarrierToken) {
	t.Helper()
	if err := r.mcps[node].credit(2, BarrierBuffer); err != nil {
		t.Fatal(err)
	}
	tok.Alg = GB
	tok.SrcPort = 2
	if err := r.mcps[node].PostBarrierToken(tok); err != nil {
		t.Fatal(err)
	}
}

func TestGBDeepTreeCompletes(t *testing.T) {
	// Chain 0 <- 1 <- 2 <- 3: maximal depth, exercises gather relay and
	// bcast relay at every interior node.
	r := newRig(t, 4, nil)
	for i := 0; i < 4; i++ {
		r.open(t, i, 2)
	}
	postGB(t, r, 0, &BarrierToken{Root: true, Children: []Endpoint{{Node: 1, Port: 2}}})
	postGB(t, r, 1, &BarrierToken{Parent: Endpoint{Node: 0, Port: 2},
		Children: []Endpoint{{Node: 2, Port: 2}}})
	postGB(t, r, 2, &BarrierToken{Parent: Endpoint{Node: 1, Port: 2},
		Children: []Endpoint{{Node: 3, Port: 2}}})
	postGB(t, r, 3, &BarrierToken{Parent: Endpoint{Node: 2, Port: 2}})
	r.s.Run()
	for i := 0; i < 4; i++ {
		if r.barrierDone(i, 2) != 1 {
			t.Fatalf("node %d completions = %d", i, r.barrierDone(i, 2))
		}
	}
}

func TestGBLateRootDrainsRecordedGathers(t *testing.T) {
	// Children gather long before the root posts its token: both gathers
	// must be recorded and then drained at token-processing time.
	r := newRig(t, 3, nil)
	for i := 0; i < 3; i++ {
		r.open(t, i, 2)
	}
	postGB(t, r, 1, &BarrierToken{Parent: Endpoint{Node: 0, Port: 2}})
	postGB(t, r, 2, &BarrierToken{Parent: Endpoint{Node: 0, Port: 2}})
	r.s.RunUntil(400 * sim.Microsecond)
	if r.mcps[0].Stats().BarrierUnexp != 2 {
		t.Fatalf("unexpected records = %d, want 2", r.mcps[0].Stats().BarrierUnexp)
	}
	postGB(t, r, 0, &BarrierToken{Root: true,
		Children: []Endpoint{{Node: 1, Port: 2}, {Node: 2, Port: 2}}})
	r.s.Run()
	for i := 0; i < 3; i++ {
		if r.barrierDone(i, 2) != 1 {
			t.Fatalf("node %d completions = %d", i, r.barrierDone(i, 2))
		}
	}
}

func TestGBGatherToClosedRootRejectResend(t *testing.T) {
	// The closed-port protocol for the GB gather direction: the child's
	// token is still active when the reject arrives, so it resends.
	r := newRig(t, 2, nil)
	r.open(t, 1, 2)
	postGB(t, r, 1, &BarrierToken{Parent: Endpoint{Node: 0, Port: 2}})
	r.s.RunUntil(300 * sim.Microsecond)
	if r.mcps[0].Stats().ClosedPortRecs == 0 {
		t.Fatal("gather to closed root not recorded")
	}
	r.open(t, 0, 2)
	postGB(t, r, 0, &BarrierToken{Root: true, Children: []Endpoint{{Node: 1, Port: 2}}})
	r.s.Run()
	if r.barrierDone(0, 2) != 1 || r.barrierDone(1, 2) != 1 {
		t.Fatalf("completions = %d/%d", r.barrierDone(0, 2), r.barrierDone(1, 2))
	}
	if r.mcps[1].Stats().BarrierResends == 0 {
		t.Fatal("child did not resend its gather")
	}
}

func TestGBBcastToClosedChildRejectResend(t *testing.T) {
	// The broadcast direction: the root's barrier has already completed
	// when the reject arrives; what it left behind reconstructs the
	// bcast (the slot's "last" record).
	r := newRig(t, 3, nil)
	r.open(t, 0, 2)
	r.open(t, 1, 2)
	// Child 2 not open yet. Root waits for both children's gathers —
	// child 1 gathers now; child 2 will join late, after which the root
	// completes and its bcast to... wait: root cannot complete until
	// child 2's gather arrives, so instead test a 2-deep scenario:
	// root(0) <- mid(1) <- leaf(2 closed at bcast time) is impossible
	// because mid needs leaf's gather first. The reachable case: the
	// child CLOSES after gathering, then reopens before the bcast's
	// reject resolution.
	postGB(t, r, 1, &BarrierToken{Parent: Endpoint{Node: 0, Port: 2}})
	r.s.RunUntil(100 * sim.Microsecond)
	// Child's gather sent; now the child dies (port closes) before the
	// root's broadcast can arrive.
	if err := r.mcps[1].ClosePort(2); err != nil {
		t.Fatal(err)
	}
	postGB(t, r, 0, &BarrierToken{Root: true, Children: []Endpoint{{Node: 1, Port: 2}}})
	r.s.RunUntil(400 * sim.Microsecond)
	// Root completed (it had the gather); its bcast hit a closed port.
	if r.barrierDone(0, 2) != 1 {
		t.Fatal("root should have completed off the recorded gather")
	}
	if r.mcps[1].Stats().ClosedPortRecs == 0 {
		t.Fatal("bcast to closed child not recorded")
	}
	// The child restarts and re-barriers. Reopening triggers the reject;
	// the root's initiating endpoint never closed, so per the paper's
	// rule ("the sender will resend, but only if the endpoint that
	// initiated the barrier has not closed since") the broadcast is
	// legitimately resent and releases the restarted child. Note the
	// paper's own caveat applies here: a port closing mid-barrier is
	// outside its benchmark guarantees, and distinguishing messages of
	// different program generations is listed as an open mechanism
	// (Section 3.2); we verify the specified behavior, not more.
	r.open(t, 1, 2)
	postGB(t, r, 1, &BarrierToken{Parent: Endpoint{Node: 0, Port: 2}})
	r.s.RunUntil(1500 * sim.Microsecond)
	if r.mcps[1].Stats().BarrierRejects == 0 {
		t.Fatal("reopened child sent no reject")
	}
	if r.mcps[0].Stats().BarrierResends == 0 {
		t.Fatal("root did not resend the broadcast")
	}
	if got := r.barrierDone(1, 2); got != 1 {
		t.Fatalf("restarted child completions = %d, want 1 (released by the resend)", got)
	}
}

func TestGBRootWithNoChildrenCompletesLocally(t *testing.T) {
	r := newRig(t, 1, nil)
	r.open(t, 0, 2)
	postGB(t, r, 0, &BarrierToken{Root: true})
	r.s.Run()
	if r.barrierDone(0, 2) != 1 {
		t.Fatal("childless root should complete immediately")
	}
}

func TestGBWideTreeSerializesGathers(t *testing.T) {
	// A 7-child star: the root's NIC processes the gathers serially; all
	// children complete.
	n := 8
	r := newRig(t, n, nil)
	for i := 0; i < n; i++ {
		r.open(t, i, 2)
	}
	var children []Endpoint
	for i := 1; i < n; i++ {
		children = append(children, Endpoint{Node: network.NodeID(i), Port: 2})
	}
	postGB(t, r, 0, &BarrierToken{Root: true, Children: children})
	for i := 1; i < n; i++ {
		postGB(t, r, i, &BarrierToken{Parent: Endpoint{Node: 0, Port: 2}})
	}
	r.s.Run()
	for i := 0; i < n; i++ {
		if r.barrierDone(i, 2) != 1 {
			t.Fatalf("node %d completions = %d", i, r.barrierDone(i, 2))
		}
	}
	// The root sent one bcast per child.
	if sent := r.mcps[0].Stats().BarrierSent; sent != int64(n-1) {
		t.Fatalf("root sent %d barrier packets, want %d", sent, n-1)
	}
}

func TestMismatchedUnexpectedKindCounted(t *testing.T) {
	// A PE frame recorded in the slot is not consumable by a GB gather
	// expectation: the mismatch counts as a protocol error and the
	// barrier does not complete.
	r := newRig(t, 2, nil)
	r.open(t, 0, 2)
	r.open(t, 1, 2)
	// Node 1 initiates PE toward node 0 (which never runs PE).
	postPEBarrier(t, r, 1, 2, []Endpoint{{Node: 0, Port: 2}})
	r.s.RunUntil(200 * sim.Microsecond)
	// Node 0 runs GB expecting a gather from node 1's endpoint.
	postGB(t, r, 0, &BarrierToken{Root: true, Children: []Endpoint{{Node: 1, Port: 2}}})
	r.s.RunUntil(600 * sim.Microsecond)
	if r.barrierDone(0, 2) != 0 {
		t.Fatal("GB root completed off a PE frame")
	}
	if r.mcps[0].Stats().ProtocolErrors == 0 {
		t.Fatal("kind mismatch not counted")
	}
}
