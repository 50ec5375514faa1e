package mcp

import (
	"fmt"
	"slices"

	"gmsim/internal/network"
	"gmsim/internal/sim"
)

// The gather/broadcast tree engine. The GB barrier (Section 5.2) and the
// four NIC collectives (the paper's Section 8 future work: "reductions or
// all-to-all broadcast could benefit from similar NIC-level
// implementations") are one walk over the tree neighborhood the host
// computed: gather from the children, send up to the parent, wait for the
// parent's release, complete, forward the release to the children. An
// operation is two facts read off its token — does it have an up phase (all
// but Broadcast), does it have a down phase (all but Reduce) — and an absorb
// step for what the frames carry, which for the barrier is nothing. What
// else differs between a barrier and a collective is a row of treeFamily.

// The two operation slots of a port: a barrier (PE or GB) and a collective
// can be in flight at once.
const (
	barrierSlot = iota
	collSlot
)

// treeFamily is one row of the two-row table of what differs between the GB
// barrier and the collectives: frame kinds, firmware task costs and span
// labels, counters, the completion event, the port slot. The walk looks
// these up; it never asks which family it is running.
type treeFamily struct {
	name string
	slot int

	up, down FrameKind
	// payload: frames carry the operation's data in Frame.Data (so they
	// cannot carry the dead-set gossip barrier frames do, see encodeDeadSet),
	// and early ones are queued with it (see record).
	payload bool

	tokenLabel, prepLabel, recvLabel, doneLabel string
	// costs picks the family's task costs out of a NIC's calibration.
	costs func(pr *FirmwareParams) treeCosts
	done  HostEventKind
	// sent, recvd and completed pick the family's counters out of a NIC's.
	sent, recvd, completed func(st *Stats) *int64
}

// treeCosts are a family's firmware task costs in cycles. perElem is charged
// per 8-byte payload element on both prepare and receive.
type treeCosts struct{ token, prep, recv, perElem int64 }

// treeFamilies holds today's calibration and does not harmonise it: GBPrep
// 320 vs CollPrep 150 differ on purpose (see FirmwareParams).
var treeFamilies = [2]treeFamily{
	barrierSlot: {
		name: "barrier", slot: barrierSlot,
		up: BarrierGatherFrame, down: BarrierBcastFrame,
		tokenLabel: "bar.token", prepLabel: "gb.prep", recvLabel: "recv.gb", doneLabel: "bar.done",
		costs: func(pr *FirmwareParams) treeCosts {
			return treeCosts{token: pr.BarrierToken + pr.GBToken, prep: pr.GBPrep, recv: pr.GBRecv}
		},
		done:      BarrierDoneEvent,
		sent:      func(st *Stats) *int64 { return &st.BarrierSent },
		recvd:     func(st *Stats) *int64 { return &st.BarrierRecvd },
		completed: func(st *Stats) *int64 { return &st.BarrierCompleted },
	},
	collSlot: {
		name: "collective", slot: collSlot,
		up: ReduceFrame, down: CollBcastFrame, payload: true,
		tokenLabel: "coll.token", prepLabel: "coll.prep", recvLabel: "recv.coll", doneLabel: "coll.done",
		costs: func(pr *FirmwareParams) treeCosts {
			// Same token-processing and receive paths as GB.
			return treeCosts{token: pr.BarrierToken + pr.GBToken, prep: pr.CollPrep, recv: pr.GBRecv, perElem: pr.CollPerElem}
		},
		done:      CollDoneEvent,
		sent:      func(st *Stats) *int64 { return &st.CollSent },
		recvd:     func(st *Stats) *int64 { return &st.CollRecvd },
		completed: func(st *Stats) *int64 { return &st.CollCompleted },
	},
}

// family returns the row a barrier-class frame kind is accounted under: the
// collective row for its two payload kinds, the barrier row for the rest (PE
// and probe frames share the barrier's counters).
func family(k FrameKind) *treeFamily {
	if k == ReduceFrame || k == CollBcastFrame {
		return &treeFamilies[collSlot]
	}
	return &treeFamilies[barrierSlot]
}

// treeOp is a posted operation as the firmware reads it off the host's
// token: the tree neighborhood and where the payload rules are — or, for a
// PE barrier, the peers in exchange order.
type treeOp struct {
	parent Endpoint
	// children are the tree children, or PE's peers.
	children []Endpoint
	// coll is the collective token: the local contribution and how partials
	// combine. Nil for a barrier, which carries nothing.
	coll *CollToken
	root bool
	// pe: the op is a PE exchange (barrier.go), not a tree walk.
	pe bool
}

// treeSlot is one of a port's two operation slots: what the host has
// provided and posted, and the NIC-resident state of its operation.
// (Eight ports a NIC, two slots a port, and usually one in use: the layout
// is kept to four words.)
type treeSlot struct {
	// watchdog is the slot's watchdog timer, built by its first arm and
	// kept across programs (resetSlots): armed while an operation is in
	// flight under DetectFailures, it probes peers whose messages are
	// overdue (FirmwareParams.BarrierTimeout).
	watchdog *sim.Timer
	// The operation state, set aside the first time the slot runs one.
	*treeState
	// m and port name the slot's card and port for its watchdog's
	// callback (timerEvent), set as the slot starts an operation.
	m *MCP
	// bufs counts host-provided completion buffers
	// (gm_provide_barrier_buffer and its collective twin) that retired credit
	// runs posted, less those consumed; like Port.recvTokens it may read
	// negative while a live run holds the rest (MCP.credits).
	bufs int32
	// pending is set from the instant a token is posted until its completion,
	// so a second post is rejected even before the SDMA machine has processed
	// the first.
	pending bool
	// live: an operation's token has been processed and it has not
	// completed.
	live bool
	port int8
}

// treeState describes a slot's operation: the one in flight or, once it has
// completed, the last (a one-way Reduce still answers a reject of its
// partial). A PE exchange uses treeOp, next and epoch only, and leaves last
// to the tree operation before it.
type treeState struct {
	treeOp
	// up and down say which phases a tree operation has.
	up, down bool
	// upDone is true once this node is through its up phase — its own frame
	// went to the parent, if the operation sends one — and it is waiting for
	// (or, with no down phase, done without) the parent's release. Never
	// set while a PE exchange runs.
	upDone bool
	// next is the index of the peer a PE exchange waits on: the paper's
	// "node index".
	next int32
	// epoch is the port's open-generation when the operation started.
	epoch int
	// got[i] is true once child i's up frame is consumed (or will never
	// come: no up phase, dead child).
	got []bool
	// acc accumulates the payload on the way up.
	acc []byte

	// last is what outlives a completed down phase: enough to resend a
	// release that a then-closed child rejects.
	last struct {
		epoch    int
		children []Endpoint
		data     []byte
	}
}

// postedRec is one posted token the SDMA state machine has yet to notice, a
// barrier's or a collective's, at card m.
type postedRec struct {
	m    *MCP
	bar  *BarrierToken
	coll *CollToken
}

// post claims a port's slot for a token the host hands over and has the
// SDMA state machine process it: cycles later the operation starts.
func (m *MCP) post(port int, fam *treeFamily, cycles int64, rec postedRec) error {
	if !m.validPort(port) || !m.ports[port].open {
		return fmt.Errorf("mcp: %s from closed port %d", fam.name, port)
	}
	s := &m.ports[port].slots[fam.slot]
	if s.pending {
		return fmt.Errorf("mcp: port %d already has a %s in flight", port, fam.name)
	}
	if m.credits(&m.ports[port], Credit(fam.slot)) == 0 {
		return fmt.Errorf("mcp: port %d has no %s buffer", port, fam.name)
	}
	s.pending = true
	cell := m.pendTokens.Get()
	*cell = rec
	m.nic.ExecTaggedCall(cycles, fam.tokenLabel, tokenEvent, cell)
	return nil
}

// tokenEvent fires when the SDMA state machine has processed a posted
// token: the operation starts.
func tokenEvent(a any) {
	cell := a.(*postedRec)
	rec, m := *cell, cell.m
	*cell = postedRec{}
	m.pendTokens.Put(cell)
	if tok := rec.coll; tok != nil {
		m.treeStart(tok.SrcPort, &treeFamilies[collSlot],
			treeOp{root: tok.Root, parent: tok.Parent, children: tok.Children, coll: tok})
		return
	}
	tok := rec.bar
	op := treeOp{root: tok.Root, parent: tok.Parent, children: tok.Children}
	if tok.Alg == PE {
		op = treeOp{children: tok.Peers, pe: true}
	}
	m.treeStart(tok.SrcPort, &treeFamilies[barrierSlot], op)
}

// treeStart begins an operation — a PE or GB barrier, or a collective — whose
// token has just been processed.
func (m *MCP) treeStart(port int, fam *treeFamily, op treeOp) {
	p := &m.ports[port]
	if !p.open {
		return // port closed while the token sat in the queue
	}
	s := &p.slots[fam.slot]
	if s.treeState == nil {
		s.treeState = new(treeState)
	}
	s.treeOp, s.epoch, s.m, s.port = op, p.epoch, m, int8(port)
	s.live, s.upDone, s.next = true, false, 0
	if !s.pe {
		s.up, s.down = s.coll.Phases()
		// An op with no up phase has nothing to gather. The record keeps
		// its backing array from one operation to the next.
		s.got = append(s.got[:0], make([]bool, len(s.children))...)
		for i := range s.got {
			s.got[i] = !s.up
		}
		s.acc = s.coll.Seed()
	}
	if m.cfg.DetectFailures && len(m.deadPeers) > 0 {
		// Peers already known dead are out of the operation before the
		// first packet goes out.
		m.treeMarkDead(s)
	}
	m.armWatchdog(s)
	if s.pe {
		m.peStep(p, s)
		return
	}
	// Consume the up frames recorded before the token arrived.
	for i, c := range s.children {
		if !s.got[i] {
			if data, ok := m.take(m.conn(c.Node), c.Port, fam.up, p.num); ok {
				s.got[i] = true
				m.absorb(s, data)
			}
		}
	}
	m.treeAdvance(p, fam)
}

// absorb folds a child's payload into the accumulator (CollToken.Absorb),
// counting a collective's combines.
func (m *MCP) absorb(s *treeSlot, data []byte) {
	if s.coll != nil {
		m.stats.CollCombines++
	}
	s.acc = s.coll.Absorb(s.acc, data)
}

// treeAdvance checks the up phase: once every child has been gathered the
// root completes; any other node sends its own frame up and then waits for
// the parent's release — or, when the operation has no down phase, is done.
// A PE exchange takes its next step and consumes what is already recorded.
func (m *MCP) treeAdvance(p *Port, fam *treeFamily) {
	s := &p.slots[fam.slot]
	if s.pe {
		m.peStep(p, s)
		m.peDrain(p, s)
		return
	}
	if slices.Contains(s.got, false) {
		return // still gathering
	}
	if s.root {
		data, err := s.coll.Result(s.acc)
		if err != nil && len(m.deadPeers) == 0 {
			// A malformed gather is a protocol violation: surface it and
			// deliver nothing rather than corrupt data. One that a dead
			// peer's missing block explains is degraded, not malformed.
			m.stats.ProtocolErrors++
		}
		if s.down {
			m.treeRelease(p, fam, data)
		} else {
			m.finish(p, fam, data)
		}
		return
	}
	if s.upDone {
		return
	}
	s.upDone = true
	c := m.conn(s.parent.Node)
	if s.up {
		m.sendBarrierFrame(c, p.num, s.epoch, s.parent.Port, fam.up, s.acc, false)
	}
	if !s.down {
		m.finish(p, fam, nil)
		return
	}
	// Now wait for the parent's release. One already recorded (possible
	// with consecutive operations) is consumed here.
	if data, ok := m.take(c, s.parent.Port, fam.down, p.num); ok {
		m.treeRelease(p, fam, data)
	}
}

// treeRelease finishes the operation at this node with the final data and
// forwards the release to the children. Matching the paper, the completion
// event is delivered to the host first ("the RDMA state machine sends a
// receive token to the host indicating that the barrier has completed, and
// sets the send token pointer in the port data structure to zero. Then the
// send token is prepared to send a barrier broadcast packet to the first
// child..."), then the forwards go out one after another.
func (m *MCP) treeRelease(p *Port, fam *treeFamily, data []byte) {
	s := &p.slots[fam.slot]
	m.finish(p, fam, data)
	s.last.epoch, s.last.children = s.epoch, s.children
	s.last.data = append([]byte(nil), data...)
	for _, child := range s.children {
		m.sendBarrierFrame(m.conn(child.Node), p.num, s.epoch, child.Port, fam.down, data, false)
	}
}

// treeMatch consumes a received frame if the slot's operation is waiting for
// it: a child's up frame not yet gathered, the parent's release once this node
// is through its up phase, or the PE message of the peer the exchange is at.
// A PE frame never matches a tree walk, nor a tree frame an exchange.
func (m *MCP) treeMatch(p *Port, fam *treeFamily, f *Frame) bool {
	s := &p.slots[fam.slot]
	if !s.live || s.pe != (f.Kind == BarrierPEFrame) {
		return false
	}
	src := Endpoint{Node: f.SrcNode, Port: f.SrcPort}
	var data []byte
	if fam.payload {
		data = f.Data // a barrier frame's Data is gossip, not payload
	}
	switch f.Kind {
	case BarrierPEFrame:
		if peer, ok := s.peCurrent(); ok && peer == src {
			s.next++
			m.treeAdvance(p, fam)
			return true
		}
	case fam.up:
		if i := slices.Index(s.children, src); i >= 0 && !s.got[i] {
			// Absorb inline: the per-element cost was charged as part of
			// this frame's receive classification, and the accumulator must
			// include this partial before any sibling's arrival can trigger
			// the advance.
			s.got[i] = true
			m.absorb(s, data)
			m.treeAdvance(p, fam)
			return true
		}
	case fam.down:
		if !s.root && s.parent == src && s.upDone {
			m.treeRelease(p, fam, data)
			return true
		}
	}
	return false
}

// treeReject runs at the origin of a rejected barrier-class frame
// (closed-port protocol, Section 3.2): resend it if the operation it belongs
// to still stands behind it. A PE message does while its exchange still waits
// on the rejector. An up frame does while its operation is in flight — or
// after, when the operation has no down phase: sending it was the node's last
// act (upDone is never set while a PE exchange runs, so this case does not
// fire then). A release is rebuilt from what the completed operation left
// behind, which a PE exchange in the same slot leaves alone.
func (m *MCP) treeReject(p *Port, fam *treeFamily, f *Frame, rejector Endpoint) {
	s := &p.slots[fam.slot]
	if s.treeState == nil {
		return // the slot never ran an operation
	}
	switch f.OrigKind {
	case BarrierPEFrame:
		if peer, ok := s.peCurrent(); ok && peer == rejector && s.epoch == f.SrcEpoch {
			m.stats.BarrierResends++
			m.sendBarrierFrame(m.conn(rejector.Node), p.num, s.epoch, rejector.Port, BarrierPEFrame, nil, false)
		}
	case fam.up:
		if (s.live || !s.down) && s.up && s.upDone && s.epoch == f.SrcEpoch && !s.root && s.parent == rejector {
			m.stats.BarrierResends++
			m.sendBarrierFrame(m.conn(rejector.Node), p.num, s.epoch, rejector.Port, fam.up, s.acc, false)
		}
	case fam.down:
		if s.last.epoch == f.SrcEpoch && slices.Contains(s.last.children, rejector) {
			m.stats.BarrierResends++
			m.sendBarrierFrame(m.conn(rejector.Node), p.num, s.last.epoch, rejector.Port, fam.down, s.last.data, false)
		}
	}
}

// finish delivers the completion event to the host — GM_BARRIER_COMPLETED_
// EVENT or its collective twin: the RDMA machine consumes one completion
// buffer, DMAs the record (and the result), and the slot is free for the
// next token (or for recording early messages for it).
func (m *MCP) finish(p *Port, fam *treeFamily, data []byte) {
	s := &p.slots[fam.slot]
	s.live = false
	if !s.pending {
		// The port was closed and reopened while the token sat in the
		// queue: this generation is owed no completion.
		return
	}
	s.pending = false
	m.cancelWatchdog(s)
	if m.credits(p, Credit(fam.slot)) > 0 {
		s.bufs--
	} else {
		m.stats.ProtocolErrors++
	}
	*fam.completed(&m.stats)++
	var dead []network.NodeID
	if m.cfg.DetectFailures {
		dead = m.deadNodesSorted()
	}
	if ev := m.postHostEvent(p, m.cfg.Params.BarrierComplete, fam.doneLabel, eventRecordBytes+len(data)); ev != nil {
		ev.Kind, ev.Data, ev.DeadNodes = fam.done, data, dead
	}
}
