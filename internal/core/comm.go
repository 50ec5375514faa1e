package core

import (
	"errors"
	"fmt"
	"slices"

	"gmsim/internal/gm"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/mem"
	"gmsim/internal/network"
)

// barrierPayload is the body of a host-based barrier message.
var barrierPayload = []byte{0xBA}

// Comm wraps a GM port with the bookkeeping a correct host-level program
// needs: a pool of pre-posted receive buffers that is replenished as
// messages are consumed, and a stash for messages that arrive before the
// program asks for them (the host-level analogue of the NIC's
// unexpected-barrier-message record).
type Comm struct {
	port *gm.Port

	// in is what has been received and not yet consumed, and the wait of
	// the blocking receive in progress.
	in inbox

	// leafMap is the topology hint for GB barrier trees (see SetLeafMap);
	// nil is the flat tree.
	leafMap *LeafMap

	// tokCache remembers the last computed neighborhood per algorithm, for
	// barriers and collectives at both levels. Programs overwhelmingly run
	// many operations over one fixed group — often a PE barrier alternating
	// with a collective over the GB tree — and the schedule/tree computation
	// plus its slices dominated the host-side allocation profile; the
	// firmware only reads tokens and their slices (its mutable state lives
	// in the port's operation slots).
	tokCache [2]tokenCache

	// barTok is the one barrier send token this Comm posts, refilled per
	// barrier: the NIC owns it from BarrierSend until the completion event
	// has been received (gm.Port.BarrierActive), the Comm otherwise.
	barTok mcp.BarrierToken
}

// inbox is the gm.Waiter of a Comm's blocking receives: it says which event
// ends the wait in progress and files every other one. The port may file an
// event from the event loop while the process is parked (gm.Port.ReceiveFor),
// so filing only records. It lives in the Comm, so handing it to the port
// allocates nothing.
type inbox struct {
	// stash holds received payloads not yet consumed, in arrival order, so
	// receive-from-any stays deterministic.
	stash []arrival

	// barrierDone counts completed-but-unconsumed NIC barriers (filed while
	// waiting for something else; at most one can be outstanding).
	// barrierDead queues, in the same order, the dead-node set each
	// completion reported (nil on clean completions).
	barrierDone int
	barrierDead [][]network.NodeID

	want want
}

// arrival is one stashed data message.
type arrival struct {
	src  mcp.Endpoint
	data []byte
}

// want is the event a blocking receive waits for: one of kind, and for data
// one from src unless anySrc.
type want struct {
	kind   mcp.HostEventKind
	src    mcp.Endpoint
	anySrc bool
}

// Ends reports whether an event of kind k from src is the one awaited.
func (in *inbox) Ends(k mcp.HostEventKind, src mcp.Endpoint) bool {
	w := &in.want
	return k == w.kind && (k != mcp.RecvEvent || w.anySrc || src == w.src)
}

// File records one event the Comm did not wait for.
func (in *inbox) File(ev *mcp.HostEvent) {
	switch ev.Kind {
	case mcp.RecvEvent:
		in.stash = append(in.stash, arrival{ev.Src, ev.Data})
	case mcp.BarrierDoneEvent:
		in.barrierDone++
		in.barrierDead = append(in.barrierDead, ev.DeadNodes)
	case mcp.SentEvent:
		// Send token returned; nothing to do at this layer.
	}
}

// takeFrom removes and returns the oldest stashed payload from src.
func (in *inbox) takeFrom(src mcp.Endpoint) ([]byte, bool) {
	for i, a := range in.stash {
		if a.src == src {
			in.stash = slices.Delete(in.stash, i, i+1)
			return a.data, true
		}
	}
	return nil, false
}

// await blocks until the port receives the event w describes, filing every
// other one, and returns it (gm.Port.ReceiveFor: valid until the next
// receive).
func (c *Comm) await(p *host.Process, w want) *mcp.HostEvent {
	c.in.want = w
	return c.port.ReceiveFor(p, &c.in)
}

// tokenCache is one memoized neighborhood (a NICBarrierToken result: PE
// peers in schedule order, or GB parent and children, as endpoints) plus the
// inputs that produced it. Group and leaf map are keyed by identity — the
// slice's base pointer and length, the map's pointer — so a hit costs the
// same at 8192 ranks as at 16; both are immutable once used (see Group). g
// is the caller's slice header, never a copy: holding it keeps the backing
// array alive, so no other group can appear at its address while it is the
// key.
type tokenCache struct {
	self, dim int
	lm        *LeafMap
	g         Group

	peers    []mcp.Endpoint
	root     bool
	parent   mcp.Endpoint
	children []mcp.Endpoint
}

// matches reports whether tc, the entry for alg, was computed from these
// inputs.
func (tc *tokenCache) matches(alg mcp.BarrierAlg, g Group, self, dim int, lm *LeafMap) bool {
	// An empty cache has an empty g; a cached g is never empty (it had a
	// valid rank).
	if len(g) == 0 || len(tc.g) != len(g) || &tc.g[0] != &g[0] {
		return false
	}
	return tc.self == self && tc.lm == lm && (alg != mcp.GB || tc.dim == dim)
}

// neighbourhood is the one place a rank's position in a barrier or collective
// is decided: rank self's neighborhood in the given group, algorithm and
// (for GB) tree dimension and leaf map, reusing the memoized one when the
// inputs are those of the previous call for that algorithm. The result is
// valid until the next such call.
func (c *Comm) neighbourhood(alg mcp.BarrierAlg, g Group, self, dim int, lm *LeafMap) (*tokenCache, error) {
	if alg != mcp.PE && alg != mcp.GB {
		return nil, fmt.Errorf("core: unknown algorithm %v", alg)
	}
	tc := &c.tokCache[alg]
	if tc.matches(alg, g, self, dim, lm) {
		return tc, nil
	}
	tok, err := NICBarrierToken(alg, g, self, dim, lm)
	if err != nil {
		return nil, err
	}
	*tc = tokenCache{
		self: self, dim: dim, lm: lm, g: g,
		peers: tok.Peers, root: tok.Root, parent: tok.Parent, children: tok.Children,
	}
	return tc, nil
}

// barrierToken refills the Comm's token for the given barrier. The firmware
// only reads it, so the refill is all there is to a reuse. The caller has
// checked that no barrier is in flight.
func (c *Comm) barrierToken(alg mcp.BarrierAlg, g Group, self, dim int) (*mcp.BarrierToken, error) {
	nb, err := c.neighbourhood(alg, g, self, dim, c.leafMap)
	if err != nil {
		return nil, err
	}
	tok := &c.barTok
	tok.Alg, tok.Peers = alg, nb.peers
	tok.Root, tok.Parent, tok.Children = nb.root, nb.parent, nb.children
	return tok, nil
}

// SetLeafMap makes this Comm's GB barriers, NIC- and host-based,
// topology-aware: lm groups the ranks by leaf switch (see NewLeafMap and
// GBTree), so the tree keeps its edges inside one crossbar wherever it can
// and trunk crossings are minimized. Nil (the default) is the flat tree. PE
// and the collectives ignore the map. Build one map per cell and hand every
// rank's Comm the same pointer.
func (c *Comm) SetLeafMap(lm *LeafMap) { c.leafMap = lm }

// NewComm wraps an open port and pre-posts bufs receive buffers: Comm.Init
// on a Comm of its own.
func NewComm(p *host.Process, port *gm.Port, bufs int) (*Comm, error) {
	c := new(Comm)
	if err := c.Init(p, port, bufs); err != nil {
		return nil, err
	}
	return c, nil
}

// Init makes c, a Comm in memory the caller owns, wrap an open port and
// pre-posts bufs receive buffers: a harness keeps each rank's Comm in the
// rank's cell (experiments.Session).
func (c *Comm) Init(p *host.Process, port *gm.Port, bufs int) error {
	*c = Comm{port: port}
	return port.ProvideReceiveBuffers(p, bufs)
}

// Port returns the wrapped port.
func (c *Comm) Port() *gm.Port { return c.port }

// Send posts a reliable data send. If the port is out of send tokens it
// waits (blocking) for a send completion to return one — the standard GM
// programming pattern for senders that outpace acknowledgments.
func (c *Comm) Send(p *host.Process, dst mcp.Endpoint, data []byte) error {
	for {
		err := c.port.Send(p, dst, data)
		if err == nil {
			return nil
		}
		if !errors.Is(err, gm.ErrNoSendTokens) {
			return err
		}
		c.await(p, want{kind: mcp.SentEvent})
	}
}

// RecvFrom blocks until a data message from src is available, consumes it,
// replenishes the receive-buffer pool, and returns the payload. Messages
// from other endpoints that arrive meanwhile are stashed.
func (c *Comm) RecvFrom(p *host.Process, src mcp.Endpoint) ([]byte, error) {
	data, ok := c.in.takeFrom(src)
	if !ok {
		data = c.await(p, want{kind: mcp.RecvEvent, src: src}).Data
	}
	if err := c.port.ProvideReceiveBuffer(p); err != nil {
		return nil, err
	}
	return data, nil
}

// RecvAny blocks until any data message is available and consumes the
// oldest one, returning its source and payload.
func (c *Comm) RecvAny(p *host.Process) (mcp.Endpoint, []byte, error) {
	var a arrival
	if len(c.in.stash) > 0 {
		a = mem.PopFront(&c.in.stash)
	} else {
		ev := c.await(p, want{kind: mcp.RecvEvent, anySrc: true})
		a = arrival{ev.Src, ev.Data}
	}
	if err := c.port.ProvideReceiveBuffer(p); err != nil {
		return a.src, nil, err
	}
	return a.src, a.data, nil
}

// ---------------------------------------------------------------------------
// NIC-based barriers.
// ---------------------------------------------------------------------------

// Barrier runs a blocking NIC-based barrier for rank self of the group
// using the given algorithm (dim applies to GB). This is the paper's fast
// path: one host->NIC token, NIC-to-NIC message exchange, one completion
// event back. g must not change once used (see Group).
func (c *Comm) Barrier(p *host.Process, alg mcp.BarrierAlg, g Group, self, dim int) error {
	pb, err := c.StartBarrier(p, alg, g, self, dim)
	if err != nil {
		return err
	}
	pb.Wait(p)
	return nil
}

// PendingBarrier is a split-phase (fuzzy) barrier in flight: the host can
// compute while the NIC completes the barrier, checking in with Test. It
// is a value the caller owns (starting a barrier allocates nothing for it);
// keep it in one variable rather than copying it around.
type PendingBarrier struct {
	c    *Comm
	done bool
	// dead is the dead-node set the completion event carried (nil unless
	// the barrier completed degraded under failure detection).
	dead []network.NodeID
}

// Dead returns the fail-stopped nodes the completion event reported
// (ascending; nil before completion or on a clean completion).
func (pb *PendingBarrier) Dead() []network.NodeID { return pb.dead }

// StartBarrier initiates a NIC-based barrier and returns immediately —
// the fuzzy-barrier entry point (Sections 1 and 5.2: "because we separate
// the barrier initiation from the polling of the barrier completion, a
// fuzzy barrier can be performed"). g must not change once used (see Group).
func (c *Comm) StartBarrier(p *host.Process, alg mcp.BarrierAlg, g Group, self, dim int) (PendingBarrier, error) {
	if c.port.BarrierActive() {
		// Refuse before the refill: the token still belongs to the barrier
		// in flight.
		return PendingBarrier{}, fmt.Errorf("core: port %d barrier already in flight", c.port.Num())
	}
	tok, err := c.barrierToken(alg, g, self, dim)
	if err != nil {
		return PendingBarrier{}, err
	}
	if err := c.port.ProvideBarrierBuffer(p); err != nil {
		return PendingBarrier{}, err
	}
	if err := c.port.BarrierSend(p, tok); err != nil {
		return PendingBarrier{}, err
	}
	return PendingBarrier{c: c}, nil
}

// Test polls once for completion without blocking; it returns true once
// the barrier has completed. Between calls the host is free to compute.
func (pb *PendingBarrier) Test(p *host.Process) bool {
	if pb.takeDone() {
		return true
	}
	if ev, ok := pb.c.port.TryReceive(p); ok {
		pb.c.in.File(ev)
	}
	return pb.takeDone()
}

// Wait blocks until the barrier completes.
func (pb *PendingBarrier) Wait(p *host.Process) {
	if !pb.takeDone() {
		ev := pb.c.await(p, want{kind: mcp.BarrierDoneEvent})
		pb.done, pb.dead = true, ev.DeadNodes
	}
}

func (pb *PendingBarrier) takeDone() bool {
	if pb.done {
		return true
	}
	if in := &pb.c.in; in.barrierDone > 0 {
		in.barrierDone--
		pb.dead = mem.PopFront(&in.barrierDead)
		pb.done = true
	}
	return pb.done
}

// ---------------------------------------------------------------------------
// Host-based barriers (the paper's baseline).
// ---------------------------------------------------------------------------

// HostBarrierPE runs the pairwise-exchange barrier entirely at the host:
// for each scheduled peer, send a message and wait for that peer's message
// — every intermediate message crosses the PCI bus twice and is processed
// by the host, which is precisely the overhead the NIC-based barrier
// removes (Figure 1). g must not change once used (see Group).
func (c *Comm) HostBarrierPE(p *host.Process, g Group, self int) error {
	nb, err := c.neighbourhood(mcp.PE, g, self, 0, c.leafMap)
	if err != nil {
		return err
	}
	for _, peer := range nb.peers {
		if err := c.Send(p, peer, barrierPayload); err != nil {
			return err
		}
		if _, err := c.RecvFrom(p, peer); err != nil {
			return err
		}
	}
	return nil
}

// HostBarrierGB runs the gather-and-broadcast barrier at the host over a
// dimension-dim tree: the host tree walk (treeWalk) with nothing to carry.
// g must not change once used (see Group).
func (c *Comm) HostBarrierGB(p *host.Process, g Group, self, dim int) error {
	nb, err := c.neighbourhood(mcp.GB, g, self, dim, c.leafMap)
	if err != nil {
		return err
	}
	_, err = treeWalk(p, c, c, nb, nil)
	return err
}

// HostBarrier dispatches on the algorithm.
func (c *Comm) HostBarrier(p *host.Process, alg mcp.BarrierAlg, g Group, self, dim int) error {
	switch alg {
	case mcp.PE:
		return c.HostBarrierPE(p, g, self)
	case mcp.GB:
		return c.HostBarrierGB(p, g, self, dim)
	default:
		return fmt.Errorf("core: unknown algorithm %v", alg)
	}
}
