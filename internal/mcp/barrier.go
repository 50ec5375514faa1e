package mcp

import "slices"

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
	fam := &treeFamilies[barrierSlot]
	cost := m.cfg.Params.BarrierToken
	if tok.Alg == GB {
		cost = fam.costs(&m.cfg.Params).token
	}
	return m.post(tok.SrcPort, fam, cost, postedRec{bar: tok})
}

// PostBarrierBuffer provides one barrier completion buffer
// (gm_provide_barrier_buffer, Section 5.2).
func (m *MCP) PostBarrierBuffer(n int) error { return m.postBuffer(n, &treeFamilies[barrierSlot]) }

// ---------------------------------------------------------------------------
// Pairwise exchange (PE): the barrier slot's op when its token says PE. The
// slot's children are the peers in exchange order and next is the paper's
// "node index".
// ---------------------------------------------------------------------------

// peCurrent returns the peer a slot's PE exchange is waiting on, if the slot
// is running one.
func (s *treeSlot) peCurrent() (Endpoint, bool) {
	if !s.live || !s.pe || int(s.next) >= len(s.children) {
		return Endpoint{}, false
	}
	return s.children[s.next], true
}

// peStep moves a PE exchange on from its current index: past peers known
// dead, then either to completion or to the current peer's packet. Once that
// packet is prepared the unexpected record is checked — the paper's SDMA-side
// check ("after the SDMA state machine prepares the packet to be sent, it
// checks to see if a barrier packet has been received from that same
// destination").
func (m *MCP) peStep(p *Port, s *treeSlot) {
	m.peSkipDead(s)
	if int(s.next) >= len(s.children) {
		m.finish(p, &treeFamilies[barrierSlot], nil)
		return
	}
	peer := s.children[s.next]
	m.sendBarrierFrame(m.conn(peer.Node), p.num, s.epoch, peer.Port, BarrierPEFrame, nil, true)
}

// peDrain consumes already-recorded messages from successive expected peers,
// advancing the exchange without waiting.
func (m *MCP) peDrain(p *Port, s *treeSlot) {
	for {
		peer, ok := s.peCurrent()
		if !ok || !m.takeUnexpected(m.conn(peer.Node), peer.Port, BarrierPEFrame, p.num) {
			return
		}
		s.next++
		m.peStep(p, s)
	}
}

// ---------------------------------------------------------------------------
// Barrier-class frame reception (the RDMA state machine's barrier hooks).
// ---------------------------------------------------------------------------

// handleBarrier receives every barrier-class frame: PE, the four tree kinds
// (tree.go) and liveness probes.
func (m *MCP) handleBarrier(f *Frame) {
	fam := family(f.Kind)
	*fam.recvd(&m.stats)++
	c := m.conn(f.SrcNode)

	if m.cfg.ReliableBarrier {
		// Duplicate suppression and acknowledgment (Section 4.4's
		// separate mechanism: own sequence space, own ack type).
		fresh := c.barrierSeen[f.SrcPort].mark(f.Seq)
		m.sendBarrierAck(c, f)
		if !fresh {
			m.stats.BarrierDups++
			return
		}
	}
	if f.Kind == BarrierProbeFrame {
		// Probes are deliberately port-agnostic beyond the ack — they
		// assert NIC liveness, not port state.
		return
	}

	if !m.validPort(f.DstPort) {
		m.stats.ProtocolErrors++
		return
	}
	p := &m.ports[f.DstPort]
	if !p.open {
		m.recordClosedPort(c, f)
		return
	}

	if !m.treeMatch(p, fam, f) {
		// Not (currently) expected: record it (Sections 3.1/4.3).
		m.record(c, f)
	}
}

// record files an early message. There are two stores behind it. Barrier
// frames use the paper's record, one bit per (connection, source port): at
// most one unexpected message per remote endpoint can be outstanding, so an
// occupied slot means a protocol violation or a duplicate. Collective frames
// queue, with their payload, in the connection's FIFO: one-way collectives
// complete at the producer without a handshake, so several can be
// outstanding (Config.CollUnexpCap bounds how many per source port).
func (m *MCP) record(c *Connection, f *Frame) {
	kind, dstPort := int8(f.Kind), int8(f.DstPort)
	if family(f.Kind).payload {
		queued := 0
		for _, rec := range c.collQ {
			if int(rec.srcPort) == f.SrcPort {
				queued++
			}
		}
		if limit := m.cfg.CollUnexpCap; limit > 0 && queued >= limit {
			m.stats.ProtocolErrors++
			return
		}
		c.collQ = append(c.collQ, collRec{
			data: append([]byte(nil), f.Data...), srcPort: int8(f.SrcPort), kind: kind, dstPort: dstPort,
		})
	} else {
		slot := &c.unexp[f.SrcPort]
		if slot.present {
			m.stats.ProtocolErrors++
		}
		*slot = unexpRec{kind: kind, dstPort: dstPort, present: true}
	}
	m.stats.BarrierUnexp++
}

// take consumes the recorded message of the given kind from port srcPort of
// c's peer to dstPort, if there is one, and returns the payload it came with.
// A collective message is the oldest match in the FIFO, so each source port's
// messages are taken in the order they came.
func (m *MCP) take(c *Connection, srcPort int, kind FrameKind, dstPort int) ([]byte, bool) {
	if !family(kind).payload {
		return nil, m.takeUnexpected(c, srcPort, kind, dstPort)
	}
	for i, rec := range c.collQ {
		if int(rec.srcPort) == srcPort && FrameKind(rec.kind) == kind && int(rec.dstPort) == dstPort {
			c.collQ = slices.Delete(c.collQ, i, i+1)
			return rec.data, true
		}
	}
	return nil, false
}

// takeUnexpected consumes the recorded barrier message from port srcPort of
// c's peer if one is present. A kind or destination-port mismatch is counted
// as a protocol error and the record is left in place (the richer-than-one-bit
// record lets the simulator detect violations the paper's bit array would
// absorb).
func (m *MCP) takeUnexpected(c *Connection, srcPort int, kind FrameKind, dstPort int) bool {
	slot := &c.unexp[srcPort]
	if !slot.present {
		return false
	}
	if FrameKind(slot.kind) != kind || int(slot.dstPort) != dstPort {
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
		m.record(c, f)
		return
	}
	recs := m.pendingClosed[f.DstPort]
	src := Endpoint{Node: f.SrcNode, Port: f.SrcPort}
	for i := range recs {
		if recs[i].src == src && family(recs[i].kind) == family(f.Kind) {
			recs[i] = pendingClosed{src: src, kind: f.Kind, srcEpoch: f.SrcEpoch, dstPort: f.DstPort, seq: f.Seq}
			return
		}
	}
	if m.pendingClosed == nil {
		m.pendingClosed = make(map[int][]pendingClosed)
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
	p := &m.ports[f.DstPort]
	if !p.open || p.epoch != f.SrcEpoch {
		return // initiator closed (or reopened) since: drop
	}
	m.treeReject(p, family(f.OrigKind), f, Endpoint{Node: f.SrcNode, Port: f.OrigDstPort})
}

// ---------------------------------------------------------------------------
// Barrier frame transmission and reliability.
// ---------------------------------------------------------------------------

// sendBarrierFrame prepares and transmits one barrier-class frame, from
// srcPort in its given epoch to port dstPort of the peer the caller holds the
// connection to: the one prepare-and-transmit stage of them all. data is a
// collective frame's payload; preparing it costs cycles proportional to its
// length. With drain set — a PE exchange's next packet — the sending port's
// unexpected-message record is checked once the packet has been prepared
// (peDrain).
func (m *MCP) sendBarrierFrame(c *Connection, srcPort, epoch, dstPort int, kind FrameKind, data []byte, drain bool) {
	rec := m.pendBarSends.Get()
	rec.c, rec.drain = c, drain
	rec.f = Frame{
		Kind:     kind,
		SrcNode:  m.cfg.Node,
		SrcPort:  srcPort,
		DstNode:  c.peer,
		DstPort:  dstPort,
		SrcEpoch: epoch,
	}
	fam := family(kind)
	if fam.payload {
		rec.f.Data = append([]byte(nil), data...)
	} else if m.cfg.DetectFailures && len(m.deadPeers) > 0 {
		// Barrier traffic gossips the dead set so survivors converge on one
		// membership view. Empty when nothing died, so zero-fault frames
		// stay byte-identical to the pre-detection wire format.
		rec.f.Data = m.encodeDeadSet()
	}
	prep, label := m.cfg.Params.BarrierPrep, "bar.prep"
	if kind == fam.up || kind == fam.down {
		c := fam.costs(&m.cfg.Params)
		prep, label = c.prep+c.perElem*int64(len(data)/ElemBytes), fam.prepLabel
	}
	m.nic.ExecTaggedCall(prep+m.cfg.Params.SendXmit, label, m.barSendFn, rec)
}

// barSendEvent fires when a barrier frame's preparation cost has been paid
// on the firmware processor: release the leased record and send the frame.
//
// A drain names no barrier instance: it checks whatever PE exchange the
// sending port's barrier slot is running. That can only be the exchange that
// queued it, because the firmware processor is FIFO (lanai.NIC.charge): a
// drain queued during barrier k runs before the bar.token task of barrier
// k+1, which the host can only post after k's completion — so it finds the
// slot idle, never its next barrier.
func (m *MCP) barSendEvent(a any) {
	rec := a.(*barSendRec)
	f, c, drain := rec.f, rec.c, rec.drain
	rec.f.Data = nil
	m.pendBarSends.Put(rec)
	m.barSend(c, &f)
	if drain {
		p := &m.ports[f.SrcPort]
		m.peDrain(p, &p.slots[barrierSlot])
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
		*family(f.Kind).sent(&m.stats)++
		m.handleBarrier(f)
		return
	}
	if m.cfg.ReliableBarrier {
		f.Seq = c.barrierSendSeq
		c.barrierSendSeq++
		c.barrierSent = append(c.barrierSent, *f)
		m.armRetransTimer(c)
	}
	*family(f.Kind).sent(&m.stats)++
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
	pr := &m.cfg.Params
	for _, f := range c.barrierSent {
		m.stats.BarrierResends++
		m.nic.ExecTagged(pr.Retrans+pr.SendXmit, "retrans", func() { m.transmitFrame(c, &f) })
	}
}
