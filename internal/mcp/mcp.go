package mcp

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"gmsim/internal/lanai"
	"gmsim/internal/mem"
	"gmsim/internal/network"
	"gmsim/internal/sim"
)

// MCP is one NIC's firmware instance: one card of a block (NewMCPs).
type MCP struct {
	*shared
	nic    *lanai.NIC
	node   network.NodeID
	iface  *network.Iface
	routes Router

	// jitter drives the retransmission-timer jitter (see unitFloat).
	// Seeded from the node ID so every run of the same cluster draws the
	// same sequence; it is consumed only when a timer is armed, all on the
	// simulator's single event loop. Created by the first draw (see
	// retransInterval): a NIC that never arms a timer — every NIC of an
	// unreliable-mode barrier run — never pays for seeding the 607-word
	// generator.
	jitter rand.Source

	// ports sit in the card itself, so a *Port stays valid; the first
	// Config.NumPorts are the NIC's. runs is the NIC's credit schedule
	// (ScheduleCredits), and conns finds the cell of each peer it has talked
	// to (nil until the first).
	ports [8]Port
	runs  []creditRun
	conns map[network.NodeID]*Connection

	// pendingClosed records barrier-class messages that arrived for closed
	// local ports, keyed by the closed port number (Section 3.2): one per
	// source endpoint and family, so a peer's barrier frame never hides
	// its collective frame. Nil until the first one arrives.
	pendingClosed map[int][]pendingClosed

	// deadPeers is this NIC's view of fail-stopped peers (DetectFailures):
	// peers whose retry budget exhausted here, plus peers learned from
	// dead-sets carried on other survivors' barrier frames. Nil until the
	// first death.
	deadPeers map[network.NodeID]bool

	stats Stats
}

// shared is what the cards of one block share: their configuration, the
// pools of the records their events carry and of their wire frames, and the
// Connection cells. The cards run on one simulator, whose single event loop
// is the only caller of any of them, so a pool shared by the block needs no
// more care than one card's did (the fabric's one packet pool is shared the
// same way).
//
// No task or timer builds a closure (see lanai.NIC.ExecTaggedCall), and no
// callback is built per card: each event's argument leads to its card. A
// pooled record carries its *MCP or a *Connection, which points back to its
// card, and a timer carries what it times, a Connection or a treeSlot, which
// does too; those callbacks are package functions. A wire frame names its
// card by node — its destination when received, its source when sent — and
// cards is indexed by node, so the four frame callbacks are method values
// built once for the block.
type shared struct {
	sim   *sim.Simulator
	cfg   Config
	cards []MCP

	// frames is the bounded free list of wire frames (see leaseFrame),
	// framePoolCap a card.
	frames []*Frame
	// conns holds the block's Connection cells in chunks of one cell a card
	// (see MCP.conn).
	conns [][]Connection

	// pendBarSends leases barrier-class frames across their preparation,
	// and pendTokens posted barrier and collective tokens the SDMA state
	// machine has yet to notice.
	pendBarSends mem.Slab[barSendRec]
	pendTokens   mem.Slab[postedRec]
	// pendHostEvts leases host events across their firmware-processing and
	// RDMA delays (see postHostEvent).
	pendHostEvts mem.Slab[hostEvtRec]
	// pendSends leases data send tokens across the SDMA state machine's
	// stages (poll and host-memory DMA, packet preparation).
	pendSends mem.Slab[sendRec]
	// pendCtl leases the acknowledgments and nacks waiting out their
	// generation cost.
	pendCtl mem.Slab[ctlRec]

	// handleFrameFn and loopbackFn take a received *Frame, sendFn a *Frame
	// to send, crcDropFn the damaged *network.Packet.
	handleFrameFn, loopbackFn, sendFn, crcDropFn func(any)
}

// barSendRec is one barrier-class frame waiting out its preparation cost on
// the firmware processor, with the connection it goes out on. drain is set on
// a PE exchange's packet: the port's unexpected-message record is checked once
// it is prepared.
type barSendRec struct {
	f     Frame
	c     *Connection
	drain bool
}

// hostEvtRec is one host event on its way to port's owner: first the
// firmware cost of preparing it, then the RDMA of its bytes-long record,
// which the task that ends at due starts.
type hostEvtRec struct {
	m           *MCP
	due         sim.Time
	port, bytes int32
	ev          HostEvent
}

// sendRec is one data send token in the SDMA state machine beside the end
// of the poll task that starts the DMA of its payload: node and ports are
// 32-bit, as wide as the frame header's (frame_codec.go) or wider.
type sendRec struct {
	m                     *MCP
	data                  []byte
	due                   sim.Time
	dst, dstPort, srcPort int32
}

// ctlRec is one control frame (ack, nack, barrier ack) to generate.
type ctlRec struct {
	kind     FrameKind
	c        *Connection
	seq      uint32
	noBuffer bool
}

// NewMCPs creates the firmware of a cluster's cards in one block, as
// lanai.NewNICs creates the cards: card i runs on nics[i] as node i, every
// card with cfg, and the cards share their pools (see shared). Each card
// must be attached (Attach) before any traffic flows.
func NewMCPs(nics []lanai.NIC, cfg Config) []MCP {
	if cfg.NumPorts <= 0 || cfg.NumPorts > 8 {
		panic(fmt.Sprintf("mcp: NumPorts %d out of range (GM allows 1..8)", cfg.NumPorts))
	}
	cards := make([]MCP, len(nics))
	sh := &shared{cfg: cfg, cards: cards}
	sh.handleFrameFn, sh.loopbackFn, sh.sendFn, sh.crcDropFn = sh.handleFrameEvent, sh.loopbackEvent, sh.sendEvent, sh.crcDropEvent
	for i := range cards {
		m := &cards[i]
		m.shared, m.nic, m.node = sh, &nics[i], network.NodeID(i)
		sh.sim = m.nic.Sim() // every card's: the block's one simulator
		for n := range m.ports {
			m.ports[n].num = n
		}
	}
	return cards
}

// Router gives the source route from one node to another: a
// *topo.Topology, held as it is, so attaching a card builds no callback.
type Router interface {
	Route(src, dst int) ([]byte, error)
}

// Attach connects the firmware to its network interface and to the router
// it asks for the source routes of its packets. The cluster layer attaches
// the MCP to the interface as its network.Receiver.
func (m *MCP) Attach(iface *network.Iface, routes Router) {
	m.iface = iface
	m.routes = routes
}

// Node returns the NIC's fabric identity.
func (m *MCP) Node() network.NodeID { return m.node }

// NIC returns the underlying hardware model.
func (m *MCP) NIC() *lanai.NIC { return m.nic }

// MaxSendTokens returns how many data sends a port may have in flight
// (Config.MaxSendTokens): the limit GM's host-side mirror enforces.
func (m *MCP) MaxSendTokens() int { return m.cfg.MaxSendTokens }

// Stats returns a snapshot of the firmware counters.
func (m *MCP) Stats() Stats { return m.stats }

// Port returns the NIC-side port structure (read-only use by tests).
func (m *MCP) Port(n int) *Port { return &m.ports[n] }

// conn returns (creating if needed) the connection to a peer NIC. Its cell
// comes from the block's chunks, which hold one cell a card: a chunk is never
// moved, so the pointer is stable, and what the last chunk leaves unused is
// less than one connection a card.
func (m *MCP) conn(peer network.NodeID) *Connection {
	c, ok := m.conns[peer]
	if !ok {
		m.shared.conns = mem.AppendChunked(m.shared.conns, Connection{m: m, peer: peer}, len(m.cards))
		last := m.shared.conns[len(m.shared.conns)-1]
		c = &last[len(last)-1]
		if m.conns == nil {
			m.conns = make(map[network.NodeID]*Connection)
		}
		m.conns[peer] = c
	}
	return c
}

func (m *MCP) validPort(n int) bool { return n >= 0 && n < m.cfg.NumPorts }

// ---------------------------------------------------------------------------
// Host-facing operations. The GM library (package gm) calls these after
// charging host-side costs and the host->NIC doorbell latency, so each
// method runs at the simulated instant the NIC can first observe the
// request.
// ---------------------------------------------------------------------------

// HostReceiver takes the host events of an open port: the GM library's port
// (*gm.Port), held as it is, so opening a port builds no callback. ev is the
// NIC's record, valid for the call; the receiver copies what it keeps.
type HostReceiver interface {
	HandleHostEvent(ev *HostEvent)
}

// OpenPort opens an endpoint whose host events go to owner. Under the
// adopted closed-port protocol (Section 3.2), any barrier messages recorded
// while the port was closed are rejected back to their senders, which resend
// them if their barrier is still in flight.
func (m *MCP) OpenPort(n int, owner HostReceiver) error {
	if !m.validPort(n) {
		return fmt.Errorf("mcp: no port %d", n)
	}
	p := &m.ports[n]
	if p.open {
		return fmt.Errorf("mcp: port %d already open", n)
	}
	p.open = true
	p.epoch++
	p.recvTokens = 0
	p.sendsInFlight = 0
	p.resetSlots()
	p.owner = owner

	if m.cfg.ClearUnexpectedOnOpen {
		// Naive alternative: clear the record of messages destined for
		// this endpoint, collective ones included.
		// order-free: each connection's records are cleared on their own.
		for _, c := range m.conns {
			for sp := range c.unexp {
				if c.unexp[sp].present && int(c.unexp[sp].dstPort) == n {
					c.unexp[sp] = unexpRec{}
				}
			}
			c.collQ = slices.DeleteFunc(c.collQ, func(r collRec) bool { return int(r.dstPort) == n })
		}
		delete(m.pendingClosed, n)
		return nil
	}
	pend := m.pendingClosed[n]
	delete(m.pendingClosed, n)
	for _, rec := range pend {
		m.nic.ExecTaggedCall(m.cfg.Params.AckGen+m.cfg.Params.SendXmit, "bar.reject", m.sendFn, m.leaseFrame(&Frame{
			Kind:        BarrierRejectFrame,
			SrcNode:     m.node,
			SrcPort:     n,
			DstNode:     rec.src.Node,
			DstPort:     rec.src.Port,
			SrcEpoch:    rec.srcEpoch,
			OrigKind:    rec.kind,
			OrigDstPort: rec.dstPort,
		}))
	}
	return nil
}

// ClosePort closes an endpoint. In-flight state is discarded; the
// closed-port protocol covers barrier messages that arrive afterwards.
func (m *MCP) ClosePort(n int) error {
	if !m.validPort(n) {
		return fmt.Errorf("mcp: no port %d", n)
	}
	p := &m.ports[n]
	if !p.open {
		return fmt.Errorf("mcp: port %d not open", n)
	}
	p.open = false
	// The port's runs die with the program that handed them over: what they
	// posted so far stays with the closed port, the rest is never posted.
	m.retire(n)
	for i := range p.slots {
		m.cancelWatchdog(&p.slots[i])
	}
	p.resetSlots()
	p.owner = nil
	return nil
}

// ScheduleCredits hands the port n host credits of kind c in closed form, as
// n back-to-back calls made now would, their doorbells ringing at first,
// first+every, …: credit k is the port's from first + k·every on, for every
// event that would have run after that doorbell (one due before now has rung
// for every event from now on). It is the one way a host credit reaches the
// NIC. Nothing is scheduled; the count is worked out when it is read
// (credits), and the simulator is told of the last doorbell's instant
// (sim.Simulator.Elide), where a run that drains sooner would have ended.
// The NIC keeps every run in one FIFO and retires a run into its port's count
// once every credit is posted. Only a port that is not open is refused.
func (m *MCP) ScheduleCredits(port int, c Credit, n int, first, every sim.Time) error {
	if !m.validPort(port) || !m.ports[port].open {
		return fmt.Errorf("mcp: credit for closed port %d", port)
	}
	if n <= 0 {
		return nil
	}
	m.runs = append(m.runs, creditRun{first: m.sim.Reserve(first), every: every, n: int32(n), port: int8(port), kind: c})
	m.sim.Elide(first + sim.Time(n-1)*every)
	return nil
}

// retire moves into its port's count every run that has posted all its
// credits, and every run of port end (-1: none) with what it has posted so
// far; the rest of such a run is never posted.
func (m *MCP) retire(end int) {
	live := m.runs[:0]
	for _, r := range m.runs {
		if k := r.posted(m.sim); k == r.n || int(r.port) == end {
			*m.ports[r.port].count(r.kind) += k
		} else {
			live = append(live, r)
		}
	}
	m.runs = live
}

// credits is port p's credits of kind c at this instant: its count, plus
// what its live runs have posted so far.
func (m *MCP) credits(p *Port, c Credit) int32 {
	m.retire(-1)
	n := *p.count(c)
	for _, r := range m.runs {
		if int(r.port) == p.num && r.kind == c {
			n += r.posted(m.sim)
		}
	}
	return n
}

// RecvTokens returns the number of receive buffers the port has available.
func (m *MCP) RecvTokens(port int) int { return int(m.credits(&m.ports[port], ReceiveToken)) }

// PostSendToken accepts a data send descriptor. The SDMA state machine
// notices it, DMAs the payload from host memory, prepares the packet,
// appends it to the connection's sent list and hands it to SEND.
func (m *MCP) PostSendToken(tok SendToken) error {
	if !m.validPort(tok.SrcPort) || !m.ports[tok.SrcPort].open {
		return fmt.Errorf("mcp: send from closed port %d", tok.SrcPort)
	}
	p := &m.ports[tok.SrcPort]
	if int(p.sendsInFlight) >= m.cfg.MaxSendTokens {
		return fmt.Errorf("mcp: port %d out of send tokens", tok.SrcPort)
	}
	p.sendsInFlight++
	// The poll task notices the token and starts the payload's DMA.
	due, done, ok := m.nic.ExecDMA(m.cfg.Params.SDMAPoll, "sdma.poll", m.nic.SDMA(), len(tok.Data))
	if !ok {
		return nil
	}
	cell := m.pendSends.Get()
	*cell = sendRec{m: m, data: tok.Data, due: due,
		dst: int32(tok.Dst.Node), dstPort: int32(tok.Dst.Port), srcPort: int32(tok.SrcPort)}
	m.sim.AtCall(done, sdmaDone, cell)
	return nil
}

// sdmaDone: the payload is in NIC memory; prepare the packet.
func sdmaDone(a any) {
	cell := a.(*sendRec)
	m := cell.m
	if !m.nic.Landed(m.nic.SDMA(), cell.due, len(cell.data)) {
		*cell = sendRec{}
		m.pendSends.Put(cell)
		return
	}
	pr := &m.cfg.Params
	m.nic.ExecTaggedCall(pr.SDMAPrep+pr.SendXmit, "sdma.prep", sdmaPrepared, a)
}

// sdmaPrepared: the packet is built; sequence it, remember it until it is
// acknowledged, and transmit. The sent item is built in place at the tail
// of the sent list, whose entries past its length are zero (ackUpTo).
func sdmaPrepared(a any) {
	cell := a.(*sendRec)
	m := cell.m
	dst := network.NodeID(cell.dst)
	c := m.conn(dst)
	n := len(c.sentList)
	c.sentList = slices.Grow(c.sentList, 1)[:n+1]
	f := &c.sentList[n]
	f.Kind = DataFrame
	f.SrcNode, f.SrcPort = m.node, int(cell.srcPort)
	f.DstNode, f.DstPort = dst, int(cell.dstPort)
	f.Seq = c.sendSeq
	f.Data = cell.data
	f.SrcEpoch = m.ports[cell.srcPort].epoch
	*cell = sendRec{}
	m.pendSends.Put(cell)
	c.sendSeq++
	m.armRetransTimer(c)
	m.stats.DataSent++
	m.transmitFrame(c, m.leaseFrame(f))
}

// ---------------------------------------------------------------------------
// SEND state machine and wire I/O.
// ---------------------------------------------------------------------------

// transmitFrame hands a leased wire frame (leaseFrame), which it owns from
// here on, to the transmit interface of connection c (or the NIC-internal
// loopback path when the destination is this NIC). The SEND state machine's
// per-packet cost (SendXmit) is charged by the caller as part of the
// packet-preparation task, so a single packet's prepare-and-transmit is one
// uninterruptible unit of firmware work — later-arriving tasks (e.g. the
// next barrier's token) cannot interleave between them.
func (m *MCP) transmitFrame(c *Connection, w *Frame) {
	if m.nic.Dead() {
		return // the card fail-stopped with this frame in flight
	}
	if w.DstNode == m.node {
		m.sim.AtCall(m.sim.Now()+m.cfg.Params.LoopbackDelay, m.loopbackFn, w)
		return
	}
	if m.iface == nil || m.routes == nil {
		panic("mcp: transmit before Attach")
	}
	if c.route == nil {
		r, err := m.routes.Route(int(m.node), int(w.DstNode))
		if err != nil {
			m.stats.ProtocolErrors++
			return
		}
		c.route = r
	}
	pkt := m.iface.NewPacket()
	pkt.Src = m.node
	pkt.Dst = w.DstNode
	pkt.Size = w.WireSize()
	pkt.Payload = w
	pkt.SetRoute(c.route)
	m.iface.Transmit(pkt)
}

// sendEvent ends a task that sends a frame the NIC does not own — a
// retransmission, or the reject of a message that found its port closed:
// the task carries a snapshot of the frame leased when it was queued, which
// goes to the peer it is addressed to. A reject is counted as it goes:
// rejects are never retransmitted, so each is sent once. The frame's source
// is the card that sends it.
func (b *shared) sendEvent(a any) {
	w := a.(*Frame)
	m := &b.cards[w.SrcNode]
	if w.Kind == BarrierRejectFrame {
		m.stats.BarrierRejects++
	}
	m.transmitFrame(m.conn(w.DstNode), w)
}

// framePoolCap bounds how many returned wire frames a block hoards per card
// (the twin of network's packetPoolCap).
const framePoolCap = 32

// leaseFrame returns a wire frame holding a copy of *src, reusing one the
// block took back when it can. A *Frame on the wire has exactly one owner: the
// sender retains frames by value (sentList, barrierSent) and leases a copy
// per (re)transmission; the receiver returns the frame after handleFrame. A
// duplicated packet carries a copy of the frame (CopyPayload), so each copy's
// receiver returns its own.
func (m *MCP) leaseFrame(src *Frame) *Frame {
	var f *Frame
	if n := len(m.frames); n > 0 {
		f = m.frames[n-1]
		m.frames = m.frames[:n-1]
	} else {
		f = new(Frame)
	}
	*f = *src
	return f
}

// releaseFrame takes a handled frame back. It leaves the frame stamped with
// releasedFrame, which receiveFrame counts as a protocol error should the
// frame turn up again; releasing it twice is a firmware bug.
func (m *MCP) releaseFrame(f *Frame) {
	if f.Kind == releasedFrame {
		panic("mcp: wire frame released twice")
	}
	f.Kind, f.Data = releasedFrame, nil
	if len(m.frames) < framePoolCap*len(m.cards) {
		m.frames = append(m.frames, f)
	}
}

// loopbackEvent fires LoopbackDelay after a self-addressed frame was
// "transmitted": receive it. No packet carried it, so nothing but this NIC
// ever saw the frame.
func (b *shared) loopbackEvent(a any) {
	f := a.(*Frame)
	b.cards[f.DstNode].receiveFrame(f)
}

// HandleDelivered is the fabric receive callback: a packet has fully
// arrived at this NIC. Damaged packets (failed CRC) are discarded after
// charging the check; when the header survived the damage (truncation cut
// only the tail) and the frame was data, the receiver nacks so the sender
// rewinds immediately instead of waiting out its timer. A packet addressed to
// another node is a protocol error: the frame callbacks find their card by
// the packet's destination, which is its frame's (transmitFrame).
func (m *MCP) HandleDelivered(p *network.Packet) {
	if p.Dst != m.node {
		m.stats.ProtocolErrors++
	}
	if m.nic.Dead() || p.Dst != m.node {
		// A dead card receives nothing, and no card what is not its own.
		m.HandleDropped(p)
		m.iface.Recycle(p)
		return
	}
	if p.Corrupt {
		m.nic.ExecTaggedCall(m.cfg.Params.CRCCheck, "crc.drop", m.crcDropFn, p)
		return
	}
	switch pl := p.Payload.(type) {
	case *Frame:
		// The frame has been extracted and nothing else looks at the
		// carrier packet again: hand it back for reuse.
		m.iface.Recycle(p)
		m.receiveFrame(pl)
	case []byte:
		// A wire-level byte image (the fault layer serializes frames it
		// mangles): decode and CRC-check like real firmware.
		f, err := DecodeFrame(pl)
		if err != nil {
			m.nic.ExecTaggedCall(m.cfg.Params.CRCCheck, "crc.drop", m.crcDropFn, p)
			return
		}
		m.receiveFrame(f)
	default:
		m.stats.ProtocolErrors++
	}
}

// HandleDropped takes back the wire frame a packet the fabric lost was
// carrying; the fabric recycles the packet itself.
func (m *MCP) HandleDropped(p *network.Packet) {
	if f, ok := p.Payload.(*Frame); ok {
		m.releaseFrame(f)
	}
}

// crcDropEvent fires once a damaged packet's CRC check has been paid: count
// the drop, nack a data frame whose header survived, and return the packet.
func (b *shared) crcDropEvent(a any) {
	p := a.(*network.Packet)
	m := &b.cards[p.Dst]
	m.stats.CorruptDrops++
	if f, ok := p.Payload.(*Frame); ok && f.Kind == DataFrame {
		m.sendNack(m.conn(f.SrcNode), false)
	}
	m.HandleDropped(p)
	m.iface.Recycle(p)
}

// receiveFrame charges the RECV state machine's classification cost and
// dispatches; the frame goes back to the free list afterwards.
func (m *MCP) receiveFrame(f *Frame) {
	pr := &m.cfg.Params
	var cost int64
	var label string
	switch f.Kind {
	case DataFrame:
		cost, label = pr.RecvData, "recv.data"
	case AckFrame, NackFrame, BarrierAckFrame, BarrierRejectFrame:
		cost, label = pr.RecvCtl, "recv.ctl"
	case BarrierProbeFrame:
		cost, label = pr.RecvCtl, "recv.probe"
	case BarrierPEFrame:
		cost, label = pr.BarrierRecv, "recv.pe"
	case BarrierGatherFrame, BarrierBcastFrame, ReduceFrame, CollBcastFrame:
		fam := family(f.Kind)
		c := fam.costs(&m.cfg.Params)
		cost, label = c.recv+c.perElem*int64(len(f.Data)/ElemBytes), fam.recvLabel
	default:
		// Includes releasedFrame: a frame that arrives after it was returned.
		m.stats.ProtocolErrors++
		return
	}
	m.nic.ExecTaggedCall(cost, label, m.handleFrameFn, f)
}

// handleFrameEvent fires when the RECV classification cost has been paid:
// dispatch the frame at the card it is addressed to, then return it.
func (b *shared) handleFrameEvent(a any) {
	f := a.(*Frame)
	m := &b.cards[f.DstNode]
	m.handleFrame(f)
	m.releaseFrame(f)
}

func (m *MCP) handleFrame(f *Frame) {
	switch f.Kind {
	case DataFrame:
		m.handleData(f)
	case AckFrame:
		m.handleAck(f)
	case NackFrame:
		m.handleNack(f)
	case BarrierPEFrame, BarrierGatherFrame, BarrierBcastFrame, BarrierProbeFrame:
		m.handleBarrier(f)
		if m.cfg.DetectFailures && len(f.Data) > 0 {
			// Merge the gossiped dead set after the frame itself was
			// dispatched, so a repair triggered by the merge cannot race the
			// expected-message bookkeeping for this very frame.
			m.mergeDeadSet(f.Data)
		}
	case ReduceFrame, CollBcastFrame:
		m.handleBarrier(f) // Data is the payload, not a dead set
	case BarrierAckFrame:
		m.handleBarrierAck(f)
	case BarrierRejectFrame:
		m.handleBarrierReject(f)
	}
}

// ---------------------------------------------------------------------------
// RECV/RDMA state machines: reliable data path.
// ---------------------------------------------------------------------------

func (m *MCP) handleData(f *Frame) {
	m.stats.DataRecv++
	c := m.conn(f.SrcNode)
	switch {
	case f.Seq == c.recvSeq:
		if !m.validPort(f.DstPort) || !m.ports[f.DstPort].open {
			// Data for a closed port: drop without ack; the sender's
			// timer will retry (and keep failing) — GM treats this as a
			// host-level error.
			m.stats.ProtocolErrors++
			return
		}
		p := &m.ports[f.DstPort]
		if m.credits(p, ReceiveToken) == 0 {
			// Receive-side flow control: no buffer, do not accept. Tell
			// the sender the connection is alive but busy (no-buffer
			// nack): it will retry on its timer without counting the
			// rounds toward connection death.
			m.stats.NoRecvToken++
			m.sendNack(c, true)
			return
		}
		c.recvSeq++
		p.recvTokens--
		m.sendAck(c)
		// RDMA machine: move payload plus event record to host memory.
		if ev := m.postHostEvent(p, m.cfg.Params.RDMAProc, "rdma.proc", eventRecordBytes+len(f.Data)); ev != nil {
			ev.Kind, ev.Src, ev.Data = RecvEvent, Endpoint{Node: f.SrcNode, Port: f.SrcPort}, f.Data
		}
	case seqLess(f.Seq, c.recvSeq):
		m.stats.Duplicates++
		m.sendAck(c) // re-ack so the sender can advance
	default:
		m.stats.OutOfOrder++
		m.sendNack(c, false)
	}
}

func (m *MCP) sendAck(c *Connection) {
	m.stats.AcksSent++
	m.sendCtl("ack.gen", ctlRec{kind: AckFrame, c: c, seq: c.recvSeq})
}

// sendNack nacks what c's peer sent past the expected sequence number, or,
// with noBuffer, the frame no receive buffer could take.
func (m *MCP) sendNack(c *Connection, noBuffer bool) {
	m.stats.NacksSent++
	m.sendCtl("nack.gen", ctlRec{kind: NackFrame, c: c, seq: c.recvSeq, noBuffer: noBuffer})
}

// sendCtl charges the generation cost of one control frame and transmits
// it when the cost has been paid.
func (m *MCP) sendCtl(label string, ctl ctlRec) {
	rec := m.pendCtl.Get()
	*rec = ctl
	m.nic.ExecTaggedCall(m.cfg.Params.AckGen+m.cfg.Params.SendXmit, label, ctlSendEvent, rec)
}

func ctlSendEvent(a any) {
	rec := a.(*ctlRec)
	ctl, m := *rec, rec.c.m
	m.pendCtl.Put(rec)
	m.transmitFrame(ctl.c, m.leaseFrame(&Frame{
		Kind:     ctl.kind,
		SrcNode:  m.node,
		DstNode:  ctl.c.peer,
		AckSeq:   ctl.seq,
		NoBuffer: ctl.noBuffer,
	}))
}

// handleAck removes acknowledged sends from the sent list and returns their
// tokens to the host (SentEvent).
func (m *MCP) handleAck(f *Frame) { m.ackUpTo(m.conn(f.SrcNode), f.AckSeq) }

// ackUpTo retires every send of connection c below the cumulative
// acknowledgment seq.
func (m *MCP) ackUpTo(c *Connection, seq uint32) {
	list := c.sentList
	n := 0
	for n < len(list) && seqLess(list[n].Seq, seq) {
		n++
	}
	if n > 0 {
		m.ackProgress(c)
	}
	// The timer sees the list without its retired prefix, which stays where
	// it is while its completions are posted; then the rest moves to the
	// front and the vacated tail is zeroed, so the sent list keeps its
	// backing array and sdmaPrepared finds a zero entry to build in.
	c.sentList = list[n:]
	m.rearmRetransTimer(c)
	for i := range list[:n] {
		m.postSentEvent(&list[i], false)
	}
	rest := copy(list, list[n:])
	clear(list[rest:])
	c.sentList = list[:rest]
}

// postSentEvent returns a send token to the host: acknowledged, or failed
// because its connection was declared dead.
func (m *MCP) postSentEvent(f *Frame, failed bool) {
	if ev := m.postHostEvent(&m.ports[f.SrcPort], m.cfg.Params.SentEvtProc, "sent.evt", eventRecordBytes); ev != nil {
		ev.Kind, ev.Failed = SentEvent, failed
	}
}

// handleNack rewinds the connection: everything the receiver has not
// accepted goes back on the wire in order (go-back-N).
func (m *MCP) handleNack(f *Frame) {
	c := m.conn(f.SrcNode)
	// Acked prefix (if any) completes as usual.
	m.ackUpTo(c, f.AckSeq)
	if f.NoBuffer {
		// The peer is alive but out of receive buffers: retry on the
		// timer, and do not let the starvation kill the connection.
		m.ackProgress(c)
		m.armRetransTimer(c)
		return
	}
	// A nack proves the peer is up and talking; only its buffers or the
	// wire lost frames. Rewind promptly rather than at the backed-off rate.
	m.ackProgress(c)
	m.retransmit(c.sentList, &m.stats.Retransmissions)
	m.rearmRetransTimer(c)
}

// retransmit puts sent — a connection's sentList or barrierSent — back on
// the wire in order, one task a frame, and counts each frame in *count.
func (m *MCP) retransmit(sent []Frame, count *int64) {
	for i := range sent {
		*count++
		m.nic.ExecTaggedCall(m.cfg.Params.Retrans+m.cfg.Params.SendXmit, "retrans", m.sendFn, m.leaseFrame(&sent[i]))
	}
}

// giveUpIfExhausted counts one retransmission round and, past MaxRetries
// consecutive rounds without acknowledgment progress, declares the
// connection dead. It returns true when the round should not be sent.
// Called once per timer fire — a fire with both data and barrier traffic
// outstanding is one round, not two.
func (m *MCP) giveUpIfExhausted(c *Connection) bool {
	if m.cfg.Params.MaxRetries <= 0 {
		return false
	}
	c.retryRounds++
	if c.retryRounds > m.cfg.Params.MaxRetries {
		m.failConnection(c)
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Retransmission timer (shared by data and reliable-barrier traffic).
// ---------------------------------------------------------------------------

// retransInterval computes the next retransmission timeout: the base
// RetransTimeout doubled per backoff round up to RetransBackoffMax, plus a
// deterministic seeded jitter of up to RetransJitterPct. Without backoff,
// a dead peer at high loss rates holds every sender in a fixed-period
// retransmit storm; the doubling drains it, and the jitter keeps peers
// that lost packets at the same instant from re-colliding forever.
func (m *MCP) retransInterval(c *Connection) sim.Time {
	pr := &m.cfg.Params
	d := pr.RetransTimeout
	if maxT := pr.RetransBackoffMax; maxT > d {
		for i := 0; i < c.backoff && d < maxT; i++ {
			d *= 2
		}
		if d > maxT {
			d = maxT
		}
	}
	if pr.RetransJitterPct > 0 {
		if m.jitter == nil {
			m.jitter = network.LinkSource(0x6d6370, network.LinkID(m.node))
		}
		d += sim.Time(float64(d) * pr.RetransJitterPct / 100 * unitFloat(m.jitter))
	}
	return d
}

// unitFloat is math/rand's Rand.Float64 computed on the source itself, the
// value stream Go guarantees: Int63 / 2⁶³, drawn again on the rare 1.0.
func unitFloat(src rand.Source) float64 {
	for {
		if f := float64(src.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// armRetransTimer arms the connection's retransmission timer if it is not
// armed and traffic is outstanding. The timer is built by the first arm.
func (m *MCP) armRetransTimer(c *Connection) {
	if c.retrans != nil && c.retrans.Armed() {
		return
	}
	if len(c.sentList) == 0 && len(c.barrierSent) == 0 {
		return
	}
	d := m.retransInterval(c)
	if c.retrans == nil {
		c.retrans = m.sim.NewTimer(timerEvent, c)
	}
	c.retrans.Arm(m.sim.Now() + d)
}

// timerEvent fires when one of a NIC's timers expires. A timer carries
// what it times, which names its card: a connection (its retransmission
// timer) or an operation slot (the slot's watchdog) of one of its ports.
func timerEvent(a any) {
	switch x := a.(type) {
	case *Connection:
		x.m.timerFire(x)
	case *treeSlot:
		x.m.watchdogFire(&x.m.ports[x.port], x)
	}
}

// rearmRetransTimer withdraws the connection's deadline and arms a fresh
// one if traffic is still outstanding.
func (m *MCP) rearmRetransTimer(c *Connection) {
	if c.retrans != nil {
		c.retrans.Disarm()
	}
	m.armRetransTimer(c)
}

// ackProgress resets the recovery state after any sign of life from the
// peer: an acknowledgment that retired traffic, a nack (the peer is up and
// talking), or a no-buffer response.
func (m *MCP) ackProgress(c *Connection) {
	c.retryRounds = 0
	c.backoff = 0
}

// timerFire runs when the retransmission timer expires with traffic still
// outstanding: grow the next interval, count the round against the retry
// budget, and rewind. The budget is charged here, once per fire, so a fire
// that rewinds both data and barrier traffic still counts as a single round.
func (m *MCP) timerFire(c *Connection) {
	if m.nic.Dead() {
		return
	}
	if len(c.sentList) == 0 && len(c.barrierSent) == 0 {
		return
	}
	m.stats.TimerFires++
	if m.cfg.Params.RetransBackoffMax > m.cfg.Params.RetransTimeout &&
		m.cfg.Params.RetransTimeout<<c.backoff < m.cfg.Params.RetransBackoffMax {
		c.backoff++
		m.stats.Backoffs++
	}
	if m.giveUpIfExhausted(c) {
		return
	}
	if len(c.sentList) > 0 {
		m.retransmit(c.sentList, &m.stats.Retransmissions)
		m.rearmRetransTimer(c)
	}
	// The retry budget was charged above, once for the fire.
	m.retransmit(c.barrierSent, &m.stats.BarrierResends)
	m.armRetransTimer(c)
}

// failConnection gives up on a peer that has not acknowledged anything for
// MaxRetries retransmission rounds: unacknowledged sends are dropped and
// their tokens returned to the host marked failed (GM's connection-dead
// behavior), and the exhaustion is counted in Stats.ConnFailures. Under
// DetectFailures it additionally declares the peer fail-stopped, so
// in-flight barriers repair themselves around it instead of hanging on the
// silently discarded barrier traffic.
func (m *MCP) failConnection(c *Connection) {
	m.stats.ConnFailures++
	c.probeOut = false
	failed := c.sentList
	c.sentList = nil
	c.barrierSent = nil
	c.retryRounds = 0
	for i := range failed {
		m.postSentEvent(&failed[i], true)
	}
	if m.cfg.DetectFailures {
		m.peerDied(c.peer)
	}
}

// deadNodesSorted returns this NIC's current view of fail-stopped peers,
// ascending (nil when DetectFailures is off or nothing died).
func (m *MCP) deadNodesSorted() []network.NodeID {
	if len(m.deadPeers) == 0 {
		return nil
	}
	out := make([]network.NodeID, 0, len(m.deadPeers))
	// order-free: the result is sorted.
	for n := range m.deadPeers {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// postHostEvent charges the firmware the given cycles for preparing a host
// event, then DMAs the event's bytes-long record into host memory and
// delivers it to the port's owner. It returns the pooled record's event,
// zero, for the caller to fill in before the transfer completes; nil when
// the card is dead and nothing will be delivered.
func (m *MCP) postHostEvent(p *Port, cycles int64, label string, bytes int) *HostEvent {
	due, done, ok := m.nic.ExecDMA(cycles, label, m.nic.RDMA(), bytes)
	if !ok {
		return nil
	}
	rec := m.pendHostEvts.Get()
	rec.m, rec.due, rec.port, rec.bytes = m, due, int32(p.num), int32(bytes)
	m.sim.AtCall(done, hostEvtDeliver, rec)
	return &rec.ev
}

// hostEvtDeliver hands a host event to its port as the event's RDMA
// completes, and releases the record once the port has taken the event.
// An event whose transfer never started, its card dead first, is dropped.
func hostEvtDeliver(a any) {
	rec := a.(*hostEvtRec)
	m := rec.m
	if p := &m.ports[rec.port]; m.nic.Landed(m.nic.RDMA(), rec.due, int(rec.bytes)) {
		switch rec.ev.Kind {
		case RecvEvent:
			m.stats.DataDelivered++
		case SentEvent:
			if p.sendsInFlight > 0 {
				p.sendsInFlight--
			}
		}
		// The GM library layer copies what it keeps.
		if p.open && p.owner != nil {
			p.owner.HandleHostEvent(&rec.ev)
		} else {
			m.stats.ProtocolErrors++
		}
	}
	*rec = hostEvtRec{}
	m.pendHostEvts.Put(rec)
}
