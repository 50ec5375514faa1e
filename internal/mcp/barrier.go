package mcp

import (
	"fmt"
	"slices"

	"gmsim/internal/network"
)

// This file is the paper's contribution at the firmware level: NIC-side
// execution of the PE and GB barrier algorithms (Section 5.2), the
// unexpected-barrier-message record (Sections 3.1/4.3), the closed-port
// record-then-reject protocol (Section 3.2), and the optional separate
// reliability mechanism for barrier packets (Section 4.4).

// PostBarrierToken accepts a barrier send token
// (gm_barrier_send_with_callback). The host has already computed the peer
// list (PE) or the tree neighborhood (GB) — the paper's division of labor:
// "the tree construction is a relatively computationally intensive task
// which can easily be computed at the host."
func (m *MCP) PostBarrierToken(tok *BarrierToken) error {
	if !m.validPort(tok.SrcPort) || !m.ports[tok.SrcPort].open {
		return fmt.Errorf("mcp: barrier from closed port %d", tok.SrcPort)
	}
	p := m.ports[tok.SrcPort]
	if p.barrier != nil || p.barrierPending {
		return fmt.Errorf("mcp: port %d already has a barrier in flight", tok.SrcPort)
	}
	if p.barrierBufs == 0 {
		return fmt.Errorf("mcp: port %d has no barrier buffer (call ProvideBarrierBuffer)", tok.SrcPort)
	}
	if tok.Alg == GB {
		// A token the host posts again keeps its backing array.
		tok.gatherFrom = append(tok.gatherFrom[:0], make([]bool, len(tok.Children))...)
		tok.sentGather = false
	}
	tok.Index = 0
	tok.completed = false
	pr := m.cfg.Params
	tokenCost := pr.BarrierToken
	if tok.Alg == GB {
		tokenCost += pr.GBToken
	}
	p.barrierPending = true
	// The SDMA state machine notices the token and processes it.
	h, cell := m.pendBarTokens.Get()
	*cell = tok
	m.nic.ExecTaggedCall(tokenCost, "bar.token", m.barTokenFn, h)
	return nil
}

// barTokenEvent fires when the SDMA state machine has processed a posted
// barrier token: the barrier starts.
func (m *MCP) barTokenEvent(h uint64) {
	cell := m.pendBarTokens.At(h)
	tok := *cell
	*cell = nil
	m.pendBarTokens.Put(h)
	p := m.ports[tok.SrcPort]
	if !p.open {
		return // port closed while the token sat in the queue
	}
	tok.Epoch = p.epoch
	p.barrier = tok
	if m.cfg.DetectFailures && len(m.deadPeers) > 0 {
		// Peers already known dead are removed from the schedule before
		// the first packet goes out.
		m.applyDeadPeers(tok)
	}
	m.armBarrierWatchdog(p)
	switch tok.Alg {
	case PE:
		if tok.Index >= len(tok.Peers) {
			m.barrierFinish(p, tok)
			return
		}
		m.peSendCurrent(p, tok)
	case GB:
		m.gbDrainRecorded(p, tok)
		m.gbMaybeAdvance(p, tok)
	}
}

// ---------------------------------------------------------------------------
// Pairwise exchange (PE).
// ---------------------------------------------------------------------------

// peSendCurrent queues the barrier packet for the current peer and, after
// it is prepared, checks the unexpected record — the paper's SDMA-side
// check ("after the SDMA state machine prepares the packet to be sent, it
// checks to see if a barrier packet has been received from that same
// destination").
func (m *MCP) peSendCurrent(p *Port, tok *BarrierToken) {
	m.sendBarrierFrameEpoch(p.num, p.epoch, tok.Peers[tok.Index], BarrierPEFrame, tok)
}

// peDrainRecorded consumes already-recorded messages from successive
// expected peers, advancing the exchange without waiting.
func (m *MCP) peDrainRecorded(p *Port, tok *BarrierToken) {
	for p.barrier == tok && tok.Index < len(tok.Peers) {
		peer := tok.Peers[tok.Index]
		if !m.takeUnexpected(m.conn(peer.Node), peer.Port, BarrierPEFrame, p.num) {
			return
		}
		m.peAdvance(p, tok)
	}
}

// peAdvance moves to the next peer after the current peer's message has
// been consumed: send to the next destination (skipping peers known dead)
// or finish.
func (m *MCP) peAdvance(p *Port, tok *BarrierToken) {
	tok.Index++
	m.peSkipDead(tok)
	if tok.Index >= len(tok.Peers) {
		m.barrierFinish(p, tok)
		return
	}
	m.peSendCurrent(p, tok)
}

// ---------------------------------------------------------------------------
// Gather and broadcast (GB).
// ---------------------------------------------------------------------------

// gbDrainRecorded consumes any gather messages recorded before the token
// arrived.
func (m *MCP) gbDrainRecorded(p *Port, tok *BarrierToken) {
	for i, c := range tok.Children {
		if !tok.gatherFrom[i] && m.takeUnexpected(m.conn(c.Node), c.Port, BarrierGatherFrame, p.num) {
			tok.gatherFrom[i] = true
		}
	}
}

// gbMaybeAdvance checks the gather phase: once all children have gathered,
// the root completes and broadcasts; a non-root sends its gather up.
func (m *MCP) gbMaybeAdvance(p *Port, tok *BarrierToken) {
	if tok.remainingGathers() > 0 {
		return
	}
	if tok.Root {
		m.gbComplete(p, tok)
		return
	}
	if !tok.sentGather {
		tok.sentGather = true
		c := m.sendBarrierFrame(p, tok.Parent, BarrierGatherFrame)
		// Now wait for the parent's broadcast. An already-recorded
		// broadcast (possible with consecutive barriers) is consumed here.
		if m.takeUnexpected(c, tok.Parent.Port, BarrierBcastFrame, p.num) {
			m.gbComplete(p, tok)
		}
	}
}

// gbComplete finishes the barrier at this node and forwards broadcast
// packets to the children. Matching the paper, the completion event is
// delivered to the host first ("the RDMA state machine sends a receive
// token to the host indicating that the barrier has completed, and sets
// the send token pointer in the port data structure to zero. Then the send
// token is prepared to send a barrier broadcast packet to the first
// child..."), then the broadcasts go out one after another.
func (m *MCP) gbComplete(p *Port, tok *BarrierToken) {
	m.barrierFinish(p, tok)
	m.lastGB[p.num] = gbDone{epoch: tok.Epoch, children: tok.Children}
	for _, child := range tok.Children {
		m.sendBarrierFrameEpoch(p.num, tok.Epoch, child, BarrierBcastFrame, nil)
	}
}

// ---------------------------------------------------------------------------
// Barrier frame reception (the RDMA state machine's barrier hooks).
// ---------------------------------------------------------------------------

func (m *MCP) handleBarrier(f *Frame) {
	m.stats.BarrierRecvd++
	src := Endpoint{Node: f.SrcNode, Port: f.SrcPort}
	c := m.conn(f.SrcNode)

	if m.cfg.ReliableBarrier {
		// Duplicate suppression and acknowledgment (Section 4.4's
		// separate mechanism: own sequence space, own ack type).
		if !c.barrierSeen[f.SrcPort].mark(f.Seq) {
			m.stats.BarrierDups++
			m.sendBarrierAck(c, f)
			return
		}
		m.sendBarrierAck(c, f)
	}

	if !m.validPort(f.DstPort) {
		m.stats.ProtocolErrors++
		return
	}
	p := m.ports[f.DstPort]
	if !p.open {
		m.recordClosedPort(c, f)
		return
	}

	tok := p.barrier
	if tok != nil {
		switch {
		case f.Kind == BarrierPEFrame && tok.Alg == PE &&
			tok.Index < len(tok.Peers) && tok.Peers[tok.Index] == src:
			m.peAdvance(p, tok)
			if p.barrier == tok {
				m.peDrainRecorded(p, tok)
			}
			return
		case f.Kind == BarrierGatherFrame && tok.Alg == GB:
			if i := tok.childIndex(src); i >= 0 && !tok.gatherFrom[i] {
				tok.gatherFrom[i] = true
				m.gbMaybeAdvance(p, tok)
				return
			}
		case f.Kind == BarrierBcastFrame && tok.Alg == GB && !tok.Root &&
			tok.Parent == src && tok.sentGather:
			m.gbComplete(p, tok)
			return
		}
	}
	// Not (currently) expected: record it (Sections 3.1/4.3). The paper's
	// record is one bit per (connection, source port); at most one
	// unexpected message per remote endpoint can be outstanding, so an
	// occupied slot means a protocol violation or a duplicate.
	m.recordUnexpected(c, f)
}

func (m *MCP) recordUnexpected(c *Connection, f *Frame) {
	slot := &c.unexp[f.SrcPort]
	if slot.present {
		m.stats.ProtocolErrors++
	}
	m.stats.BarrierUnexp++
	*slot = unexpRec{present: true, kind: f.Kind, dstPort: f.DstPort, srcEpoch: f.SrcEpoch}
}

// takeUnexpected consumes the recorded message from port srcPort of c's peer
// if one is present. A kind or destination-port mismatch is counted as a
// protocol error and the record is left in place (the richer-than-one-bit
// record lets the simulator detect violations the paper's bit array would
// absorb).
func (m *MCP) takeUnexpected(c *Connection, srcPort int, kind FrameKind, dstPort int) bool {
	slot := &c.unexp[srcPort]
	if !slot.present {
		return false
	}
	if slot.kind != kind || slot.dstPort != dstPort {
		m.stats.ProtocolErrors++
		return false
	}
	*slot = unexpRec{}
	return true
}

// ---------------------------------------------------------------------------
// Closed-port protocol (Section 3.2, adopted solution).
// ---------------------------------------------------------------------------

func (m *MCP) recordClosedPort(c *Connection, f *Frame) {
	m.stats.ClosedPortRecs++
	if m.cfg.ClearUnexpectedOnOpen {
		// Naive alternative: record normally; OpenPort clears it.
		m.recordUnexpected(c, f)
		return
	}
	recs := m.pendingClosed[f.DstPort]
	src := Endpoint{Node: f.SrcNode, Port: f.SrcPort}
	for i := range recs {
		if recs[i].src == src {
			recs[i] = pendingClosed{src: src, kind: f.Kind, srcEpoch: f.SrcEpoch, dstPort: f.DstPort, seq: f.Seq}
			return
		}
	}
	m.pendingClosed[f.DstPort] = append(recs, pendingClosed{
		src: src, kind: f.Kind, srcEpoch: f.SrcEpoch, dstPort: f.DstPort, seq: f.Seq,
	})
}

// handleBarrierReject runs at the origin of a rejected barrier message:
// resend it, "but only if the endpoint that initiated the barrier has not
// closed since the message was sent" (epoch check). Note the check guards
// the *initiator's* generation only, exactly as the paper specifies: if
// the receiving port was closed mid-barrier and reopened by a new process,
// the resend can still release the newcomer. The paper excludes that case
// from its guarantees (Section 4.4 benchmarks never close a participating
// port mid-barrier) and names the general fix — "a mechanism to
// distinguish messages of one parallel program from another" — as future
// work (Section 3.2).
func (m *MCP) handleBarrierReject(f *Frame) {
	if !m.validPort(f.DstPort) {
		m.stats.ProtocolErrors++
		return
	}
	p := m.ports[f.DstPort]
	if !p.open || p.epoch != f.SrcEpoch {
		return // initiator closed (or reopened) since: drop
	}
	rejector := Endpoint{Node: f.SrcNode, Port: f.OrigDstPort}
	tok := p.barrier
	switch f.OrigKind {
	case BarrierPEFrame:
		if tok != nil && tok.Alg == PE && tok.Epoch == f.SrcEpoch &&
			tok.Index < len(tok.Peers) && tok.Peers[tok.Index] == rejector {
			m.stats.BarrierResends++
			m.sendBarrierFrame(p, rejector, BarrierPEFrame)
		}
	case BarrierGatherFrame:
		if tok != nil && tok.Alg == GB && tok.Epoch == f.SrcEpoch &&
			!tok.Root && tok.Parent == rejector && tok.sentGather {
			m.stats.BarrierResends++
			m.sendBarrierFrame(p, rejector, BarrierGatherFrame)
		}
	case BarrierBcastFrame:
		// The broadcast sender's barrier has already completed locally;
		// what it left behind lets it reconstruct the message.
		last := m.lastGB[f.DstPort]
		if last.epoch == f.SrcEpoch && slices.Contains(last.children, rejector) {
			m.stats.BarrierResends++
			m.sendBarrierFrameEpoch(f.DstPort, last.epoch, rejector, BarrierBcastFrame, nil)
		}
	}
}

// ---------------------------------------------------------------------------
// Barrier frame transmission and reliability.
// ---------------------------------------------------------------------------

// sendBarrierFrame prepares and transmits one barrier packet from the
// port's current epoch, and returns the connection it goes out on.
func (m *MCP) sendBarrierFrame(p *Port, dst Endpoint, kind FrameKind) *Connection {
	return m.sendBarrierFrameEpoch(p.num, p.epoch, dst, kind, nil)
}

// sendBarrierFrameEpoch is sendBarrierFrame for an explicit epoch. A
// non-nil drain is the sending port's PE token: once the packet has been
// prepared its unexpected-message record is checked (peDrainRecorded).
func (m *MCP) sendBarrierFrameEpoch(srcPort, epoch int, dst Endpoint, kind FrameKind, drain *BarrierToken) *Connection {
	h, rec := m.pendBarSends.Get()
	rec.c, rec.drain = m.conn(dst.Node), drain
	rec.f = Frame{
		Kind:     kind,
		SrcNode:  m.cfg.Node,
		SrcPort:  srcPort,
		DstNode:  dst.Node,
		DstPort:  dst.Port,
		SrcEpoch: epoch,
	}
	if m.cfg.DetectFailures && len(m.deadPeers) > 0 {
		// Barrier traffic gossips the dead set so survivors converge on one
		// membership view. Empty when nothing died, so zero-fault frames
		// stay byte-identical to the pre-detection wire format.
		rec.f.Data = m.encodeDeadSet()
	}
	prep, label := m.cfg.Params.BarrierPrep, "bar.prep"
	if kind == BarrierGatherFrame || kind == BarrierBcastFrame {
		prep, label = m.cfg.Params.GBPrep, "gb.prep"
	}
	m.nic.ExecTaggedCall(prep+m.cfg.Params.SendXmit, label, m.barSendFn, h)
	return rec.c
}

// barSendEvent fires when a barrier frame's preparation cost has been paid
// on the firmware processor: release the leased record and send the frame.
//
// drain names a barrier instance by its token's address, and the host posts
// one token again and again (core.Comm). That stays sound because the
// firmware processor is FIFO (lanai.NIC.charge): a drain queued during
// barrier k runs before the bar.token task of barrier k+1, which the host can
// only post after k's completion — so it finds p.barrier nil, never the same
// token in its next life.
func (m *MCP) barSendEvent(h uint64) {
	rec := m.pendBarSends.At(h)
	f, c, drain := rec.f, rec.c, rec.drain
	rec.f.Data, rec.drain = nil, nil
	m.pendBarSends.Put(h)
	m.barSend(c, &f)
	if drain != nil {
		m.peDrainRecorded(m.ports[f.SrcPort], drain)
	}
}

// barSend puts one prepared barrier frame on the wire (or short-circuits
// it: dead destination, same-NIC loopback flag).
func (m *MCP) barSend(c *Connection, f *Frame) {
	if m.cfg.DetectFailures && f.DstNode != m.cfg.Node && m.deadPeers[f.DstNode] {
		// The destination died while this frame waited out its prep cost:
		// sending would only spin up the retransmission machinery toward a
		// corpse. The repair path has already routed the barrier around it.
		return
	}
	if m.cfg.LoopbackFlag && f.DstNode == m.cfg.Node {
		// Section 3.4 optimization: two ports of the same NIC in one
		// barrier exchange a flag instead of a packet.
		m.stats.BarrierSent++
		m.handleBarrier(f)
		return
	}
	if m.cfg.ReliableBarrier {
		f.Seq = c.barrierSendSeq
		c.barrierSendSeq++
		c.barrierSent = append(c.barrierSent, *f)
		m.armRetransTimer(c)
	}
	m.stats.BarrierSent++
	m.transmitFrame(c, f)
}

func (m *MCP) sendBarrierAck(c *Connection, f *Frame) {
	m.sendCtl("ack.gen", ctlRec{kind: BarrierAckFrame, c: c, seq: f.Seq})
}

func (m *MCP) handleBarrierAck(f *Frame) {
	c := m.conn(f.SrcNode)
	for i := range c.barrierSent {
		if sb := &c.barrierSent[i]; sb.Seq == f.AckSeq {
			if sb.Kind == BarrierProbeFrame {
				c.probeOut = false // the peer answered: alive
			}
			c.barrierSent = slices.Delete(c.barrierSent, i, i+1)
			m.ackProgress(c)
			break
		}
	}
	// A stale or duplicate barrier ack (seq already retired) matches no
	// entry and is simply absorbed.
	m.rearmRetransTimer(c)
}

// retransmitBarrier resends the unacked barrier frames. The retry budget
// was already charged by timerFire (its only caller), once for the fire.
func (m *MCP) retransmitBarrier(c *Connection) {
	pr := m.cfg.Params
	for _, f := range c.barrierSent {
		m.stats.BarrierResends++
		c.retransmit++
		m.nic.ExecTagged(pr.Retrans+pr.SendXmit, "retrans", func() { m.transmitFrame(c, &f) })
	}
}

// ---------------------------------------------------------------------------
// Completion.
// ---------------------------------------------------------------------------

// barrierFinish delivers GM_BARRIER_COMPLETED_EVENT to the host: the RDMA
// machine consumes one barrier buffer, DMAs the completion record, and the
// send token pointer is cleared so the next barrier (or recording of early
// messages for it) can proceed.
func (m *MCP) barrierFinish(p *Port, tok *BarrierToken) {
	if tok.completed {
		return
	}
	tok.completed = true
	p.barrier = nil
	p.barrierPending = false
	m.cancelBarrierWatchdog(p)
	if p.barrierBufs > 0 {
		p.barrierBufs--
	} else {
		m.stats.ProtocolErrors++
	}
	m.stats.BarrierCompleted++
	var dead []network.NodeID
	if m.cfg.DetectFailures {
		dead = m.deadNodesSorted()
	}
	m.postHostEvent(p, m.cfg.Params.BarrierComplete, "bar.done", eventRecordBytes,
		HostEvent{Kind: BarrierDoneEvent, Tag: tok.Tag, DeadNodes: dead})
}
