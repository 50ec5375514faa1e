package mcp

import (
	"encoding/binary"
	"fmt"
)

// This file implements the paper's stated future work (Section 8): "we
// intend to investigate whether other collective communication operations,
// such as reductions or all-to-all broadcast could benefit from similar
// NIC-level implementations." It adds NIC-resident broadcast, reduce and
// allreduce over the same fixed-dimension trees the GB barrier uses, with
// the same design solutions: per-port token pointer, unexpected-message
// record, and (in reliable mode) the separate acknowledgment mechanism.

// CollOp selects the collective operation a CollToken executes.
type CollOp int

const (
	// Broadcast: the root's payload reaches every participant.
	Broadcast CollOp = iota
	// Reduce: all participants' vectors combine at the root.
	Reduce
	// AllReduce: Reduce followed by a NIC-level broadcast of the result.
	AllReduce
	// AllGather: all-to-all broadcast — every rank's fixed-size block
	// reaches every rank, in rank order (the Section 8 wording).
	AllGather
)

func (o CollOp) String() string {
	switch o {
	case Broadcast:
		return "broadcast"
	case Reduce:
		return "reduce"
	case AllReduce:
		return "allreduce"
	case AllGather:
		return "allgather"
	default:
		return fmt.Sprintf("collop(%d)", int(o))
	}
}

// ReduceOp is the element-wise combiner for Reduce/AllReduce. Vectors are
// little-endian int64 elements; the NIC firmware executes the combine, so
// its cost scales with vector length at NIC speed (see
// FirmwareParams.CollPerElem).
type ReduceOp int

const (
	// OpSum adds elements.
	OpSum ReduceOp = iota
	// OpMin keeps the minimum.
	OpMin
	// OpMax keeps the maximum.
	OpMax
	// OpBAnd bitwise-ands elements.
	OpBAnd
	// OpBOr bitwise-ors elements.
	OpBOr
)

func (o ReduceOp) String() string {
	switch o {
	case OpSum:
		return "sum"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	case OpBAnd:
		return "band"
	case OpBOr:
		return "bor"
	default:
		return fmt.Sprintf("reduceop(%d)", int(o))
	}
}

// ElemBytes is the reduce element width.
const ElemBytes = 8

// Combine applies op element-wise: dst = dst (op) src. Short or ragged
// vectors combine over the common prefix of whole elements. It is the one
// copy of the rule: the host-level baselines (core, mpi) call it too.
func (o ReduceOp) Combine(dst, src []byte) {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	for i := 0; i+ElemBytes <= n; i += ElemBytes {
		a := int64(binary.LittleEndian.Uint64(dst[i:]))
		b := int64(binary.LittleEndian.Uint64(src[i:]))
		var r int64
		switch o {
		case OpSum:
			r = a + b
		case OpMin:
			r = a
			if b < a {
				r = b
			}
		case OpMax:
			r = a
			if b > a {
				r = b
			}
		case OpBAnd:
			r = a & b
		case OpBOr:
			r = a | b
		default:
			r = a
		}
		binary.LittleEndian.PutUint64(dst[i:], uint64(r))
	}
}

// CollToken is the NIC-resident state of one collective operation for one
// port, mirroring BarrierToken: the host computes the tree neighborhood,
// the NIC runs the operation.
type CollToken struct {
	Op      CollOp
	Reduce  ReduceOp
	SrcPort int
	Epoch   int
	Tag     any

	Root     bool
	Parent   Endpoint
	Children []Endpoint

	// Value is the local contribution (Reduce/AllReduce/AllGather) or,
	// at the root, the broadcast payload.
	Value []byte

	// Rank, BlockSize and GroupSize describe the AllGather layout: this
	// node's rank, the per-rank block size, and the group size.
	Rank      int
	BlockSize int
	GroupSize int

	// acc is the reduction accumulator; reducedFrom marks children whose
	// partials were combined.
	acc         []byte
	reducedFrom []bool
	sentUp      bool
	completed   bool
	// lastData remembers the final payload so a broadcast rejected by a
	// then-closed child can be reconstructed (closed-port protocol).
	lastData []byte
}

// absorb merges a child's partial into the accumulator: element-wise
// combine for reductions, concatenation for allgather.
func (t *CollToken) absorb(data []byte) {
	if t.Op == AllGather {
		t.agAbsorb(data)
		return
	}
	t.Reduce.Combine(t.acc, data)
}

func (t *CollToken) remainingPartials() int {
	n := 0
	for _, got := range t.reducedFrom {
		if !got {
			n++
		}
	}
	return n
}

func (t *CollToken) childIndex(ep Endpoint) int {
	for i, c := range t.Children {
		if c == ep {
			return i
		}
	}
	return -1
}

// CollectiveDoneEvent is delivered through the normal host event queue with
// Kind == CollDoneEvent and Data holding the result (broadcast payload or
// reduction result; Reduce delivers data only at the root).

// Validate reports what is wrong with the token's host-filled fields, if
// anything. The GM library checks before it commits host-side state; the
// firmware checks again when the token is posted.
func (t *CollToken) Validate() error {
	if t.Op == AllGather && (t.BlockSize <= 0 || t.GroupSize <= 0 || len(t.Value) != t.BlockSize) {
		return fmt.Errorf("mcp: allgather needs BlockSize/GroupSize and a block-sized Value")
	}
	return nil
}

// PostCollectiveToken accepts a collective send token. The port must have a
// collective buffer provided (ProvideCollectiveBuffer) and no collective in
// flight.
func (m *MCP) PostCollectiveToken(tok *CollToken) error {
	if !m.validPort(tok.SrcPort) || !m.ports[tok.SrcPort].open {
		return fmt.Errorf("mcp: collective from closed port %d", tok.SrcPort)
	}
	if err := tok.Validate(); err != nil {
		return err
	}
	p := m.ports[tok.SrcPort]
	if p.coll != nil || p.collPending {
		return fmt.Errorf("mcp: port %d already has a collective in flight", tok.SrcPort)
	}
	if p.collBufs == 0 {
		return fmt.Errorf("mcp: port %d has no collective buffer", tok.SrcPort)
	}
	tok.completed = false
	tok.sentUp = false
	switch tok.Op {
	case Broadcast:
	case AllGather:
		tok.initAllGather()
	default:
		tok.acc = append([]byte(nil), tok.Value...)
		tok.reducedFrom = make([]bool, len(tok.Children))
	}
	p.collPending = true
	pr := m.cfg.Params
	cost := pr.BarrierToken + pr.GBToken // same token-processing path as GB
	m.nic.ExecTagged(cost, "coll.token", func() {
		if !p.open {
			return
		}
		tok.Epoch = p.epoch
		p.coll = tok
		switch tok.Op {
		case Broadcast:
			if tok.Root {
				m.collDeliverAndForward(p, tok, tok.Value)
				return
			}
			// Non-root: consume an early-recorded broadcast if present.
			if data, ok := m.takeUnexpectedData(tok.Parent, CollBcastFrame, p.num); ok {
				m.collDeliverAndForward(p, tok, data)
			}
		case Reduce, AllReduce, AllGather:
			m.collDrainPartials(p, tok)
			m.collMaybeAdvance(p, tok)
		}
	})
	return nil
}

// PostCollectiveBuffer provides one collective completion buffer.
func (m *MCP) PostCollectiveBuffer(n int) error {
	if !m.validPort(n) || !m.ports[n].open {
		return fmt.Errorf("mcp: collective buffer for closed port %d", n)
	}
	m.ports[n].collBufs++
	return nil
}

// collDrainPartials consumes early-recorded reduce partials from children.
func (m *MCP) collDrainPartials(p *Port, tok *CollToken) {
	for i, c := range tok.Children {
		if tok.reducedFrom[i] {
			continue
		}
		if data, ok := m.takeUnexpectedData(c, ReduceFrame, p.num); ok {
			tok.reducedFrom[i] = true
			m.stats.CollCombines++
			tok.absorb(data)
		}
	}
}

// collMaybeAdvance drives the reduce phase after a partial is absorbed.
func (m *MCP) collMaybeAdvance(p *Port, tok *CollToken) {
	if tok.remainingPartials() > 0 {
		return
	}
	if tok.Root {
		switch tok.Op {
		case Reduce:
			m.collFinish(p, tok, tok.acc)
		case AllReduce:
			m.collDeliverAndForward(p, tok, tok.acc)
		case AllGather:
			m.agFinishRoot(p, tok)
		}
		return
	}
	if !tok.sentUp {
		tok.sentUp = true
		m.sendCollFrame(p.num, p.epoch, tok.Parent, ReduceFrame, tok.acc, len(tok.acc))
		switch tok.Op {
		case Reduce:
			// Done at this node: deliver completion with no data. Keep
			// the token so a closed-port reject can resend the partial.
			m.lastColl[p.num] = tok
			m.collFinish(p, tok, nil)
		case AllReduce, AllGather:
			// Wait for the broadcast of the final value; consume an
			// early-recorded one.
			if data, ok := m.takeUnexpectedData(tok.Parent, CollBcastFrame, p.num); ok {
				m.collDeliverAndForward(p, tok, data)
			}
		}
	}
}

// collDeliverAndForward completes the operation locally with the final data
// and forwards broadcast packets to the children — completion first, then
// the forwards, mirroring the GB barrier's ordering.
func (m *MCP) collDeliverAndForward(p *Port, tok *CollToken, data []byte) {
	tok.lastData = append([]byte(nil), data...)
	m.lastColl[p.num] = tok
	m.collFinish(p, tok, data)
	for _, child := range tok.Children {
		m.sendCollFrame(p.num, tok.Epoch, child, CollBcastFrame, data, len(data))
	}
}

// collFinish delivers the completion event (consuming a collective buffer)
// and clears the port's collective pointer.
func (m *MCP) collFinish(p *Port, tok *CollToken, data []byte) {
	if tok.completed {
		return
	}
	tok.completed = true
	p.coll = nil
	p.collPending = false
	if p.collBufs > 0 {
		p.collBufs--
	} else {
		m.stats.ProtocolErrors++
	}
	m.stats.CollCompleted++
	m.postHostEvent(p, m.cfg.Params.BarrierComplete, "coll.done", eventRecordBytes+len(data),
		HostEvent{Kind: CollDoneEvent, Tag: tok.Tag, Data: data})
}

// sendCollFrame prepares and transmits one collective packet. Reduce
// combining and payload handling cost extra cycles proportional to the
// vector length.
func (m *MCP) sendCollFrame(srcPort, epoch int, dst Endpoint, kind FrameKind, data []byte, size int) {
	f := Frame{
		Kind:     kind,
		SrcNode:  m.cfg.Node,
		SrcPort:  srcPort,
		DstNode:  dst.Node,
		DstPort:  dst.Port,
		Data:     append([]byte(nil), data...),
		SrcEpoch: epoch,
	}
	pr := m.cfg.Params
	cost := pr.CollPrep + pr.SendXmit + pr.CollPerElem*int64(len(data)/ElemBytes)
	m.nic.ExecTagged(cost, "coll.prep", func() {
		c := m.conn(dst.Node)
		if m.cfg.ReliableBarrier {
			f.Seq = c.barrierSendSeq
			c.barrierSendSeq++
			c.barrierSent = append(c.barrierSent, f)
			m.armRetransTimer(c)
		}
		m.stats.CollSent++
		m.transmitFrame(c, &f)
	})
}

// handleCollective processes a received collective frame (dispatched from
// handleFrame).
func (m *MCP) handleCollective(f *Frame) {
	m.stats.CollRecvd++
	src := Endpoint{Node: f.SrcNode, Port: f.SrcPort}
	c := m.conn(f.SrcNode)

	if m.cfg.ReliableBarrier {
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

	tok := p.coll
	if tok != nil {
		switch {
		case f.Kind == ReduceFrame && tok.Op != Broadcast:
			if i := tok.childIndex(src); i >= 0 && !tok.reducedFrom[i] {
				// Combine inline: the per-element cost was charged as part
				// of this frame's receive classification, and the
				// accumulator must include this partial before any
				// sibling's arrival can trigger the advance.
				tok.reducedFrom[i] = true
				m.stats.CollCombines++
				tok.absorb(f.Data)
				m.collMaybeAdvance(p, tok)
				return
			}
		case f.Kind == CollBcastFrame:
			fromParent := !tok.Root && tok.Parent == src
			downWaiting := tok.Op == Broadcast ||
				((tok.Op == AllReduce || tok.Op == AllGather) && tok.sentUp)
			if fromParent && downWaiting {
				m.collDeliverAndForward(p, tok, f.Data)
				return
			}
		}
	}
	m.recordUnexpectedData(c, f)
}

// recordUnexpectedData queues an early collective frame (with payload).
// Collectives use a FIFO queue per (connection, source port) rather than
// the barrier's single bit, because one-way collectives complete at the
// producer without a handshake and several can be outstanding.
func (m *MCP) recordUnexpectedData(c *Connection, f *Frame) {
	q := c.collQ[f.SrcPort]
	cap := m.cfg.CollUnexpCap
	if cap > 0 && len(q) >= cap {
		m.stats.ProtocolErrors++
		return
	}
	m.stats.BarrierUnexp++
	c.collQ[f.SrcPort] = append(q, unexpRec{
		present: true, kind: f.Kind, dstPort: f.DstPort, srcEpoch: f.SrcEpoch,
		data: append([]byte(nil), f.Data...),
	})
}

// takeUnexpectedData consumes the oldest queued collective message of the
// given kind for the given destination port and returns its payload.
func (m *MCP) takeUnexpectedData(src Endpoint, kind FrameKind, dstPort int) ([]byte, bool) {
	c := m.conn(src.Node)
	q := c.collQ[src.Port]
	for i, rec := range q {
		if rec.kind == kind && rec.dstPort == dstPort {
			c.collQ[src.Port] = append(q[:i:i], q[i+1:]...)
			return rec.data, true
		}
	}
	return nil, false
}

// handleCollectiveReject resends a rejected collective message if the
// operation is still in flight (closed-port protocol, Section 3.2 applied
// to collectives).
func (m *MCP) handleCollectiveReject(f *Frame) {
	if !m.validPort(f.DstPort) {
		m.stats.ProtocolErrors++
		return
	}
	p := m.ports[f.DstPort]
	if !p.open || p.epoch != f.SrcEpoch {
		return
	}
	rejector := Endpoint{Node: f.SrcNode, Port: f.OrigDstPort}
	tok := p.coll
	switch f.OrigKind {
	case ReduceFrame:
		if tok == nil {
			tok = m.lastColl[f.DstPort]
		}
		if tok != nil && tok.Op != Broadcast && tok.Epoch == f.SrcEpoch &&
			!tok.Root && tok.Parent == rejector && tok.sentUp {
			m.stats.BarrierResends++
			m.sendCollFrame(f.DstPort, tok.Epoch, rejector, ReduceFrame, tok.acc, len(tok.acc))
		}
	case CollBcastFrame:
		last := m.lastColl[f.DstPort]
		if last != nil && last.Epoch == f.SrcEpoch && last.childIndex(rejector) >= 0 {
			m.stats.BarrierResends++
			m.sendCollFrame(f.DstPort, last.Epoch, rejector, CollBcastFrame, last.lastData, len(last.lastData))
		}
	}
}
