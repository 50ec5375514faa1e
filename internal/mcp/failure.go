package mcp

import (
	"encoding/binary"

	"gmsim/internal/network"
	"gmsim/internal/sim"
)

// Crash-fault detection and degraded barrier membership (Config.
// DetectFailures). The paper's protocol assumes fail-free peers: a node
// that crashes mid-barrier leaves every neighbor retransmitting into
// silence forever (or, before this change, silently dropping the barrier
// traffic at retry exhaustion and hanging the barrier). This file turns
// retry-budget exhaustion into a failure detector and repairs in-flight
// barriers around the dead:
//
//   - detection: unacked traffic toward a peer exhausts MaxRetries →
//     failConnection → peerDied. A barrier watchdog (FirmwareParams.
//     BarrierTimeout) covers the receive-only case — a node waiting on a
//     message with nothing of its own in flight sends a BarrierProbeFrame
//     through the reliable-barrier machinery, so an unanswered probe also
//     exhausts and detects.
//   - repair: PE skips dead peers in its exchange schedule; GB marks dead
//     children as gathered and a node whose parent died promotes itself to
//     subtree root (leader re-election by orphaning), completing and
//     releasing its own subtree.
//   - convergence: barrier frames gossip the sender's dead set, so
//     survivors that never talked to the dead node still learn of it and
//     report the same survivor set in their completion events.
//
// Everything here is gated: with DetectFailures off (the default) no
// events are scheduled, no frame bytes change, and the firmware behaves
// exactly as the paper describes.

// peerDied records peer as fail-stopped and repairs every in-flight
// barrier on this NIC around it. Idempotent; self-death is ignored.
func (m *MCP) peerDied(peer network.NodeID) {
	if peer == m.cfg.Node || m.deadPeers[peer] {
		return
	}
	m.deadPeers[peer] = true
	m.stats.PeersDeclaredDead++
	c := m.conn(peer)
	c.dead = true
	c.probeOut = false
	if len(c.sentList) > 0 || len(c.barrierSent) > 0 {
		// Anything still in flight toward the corpse will never be acked:
		// fail it now (the recursive peerDied is cut by the map check).
		m.failConnection(c)
	}
	for _, p := range m.ports {
		if p.open && p.barrier != nil {
			m.repairBarrier(p, p.barrier)
		}
	}
}

// applyDeadPeers removes peers already known dead from a just-activated
// barrier token's schedule, before its first packet goes out. State-only:
// the caller drives the sends afterwards.
func (m *MCP) applyDeadPeers(tok *BarrierToken) {
	switch tok.Alg {
	case PE:
		m.peSkipDead(tok)
	case GB:
		m.gbMarkDead(tok)
	}
}

// repairBarrier routes an in-flight barrier around peers newly known dead.
func (m *MCP) repairBarrier(p *Port, tok *BarrierToken) {
	switch tok.Alg {
	case PE:
		if tok.Index >= len(tok.Peers) || !m.deadPeers[tok.Peers[tok.Index].Node] {
			return // not stuck on a dead peer; later deads are skipped at advance
		}
		m.stats.BarrierRepairs++
		m.peSkipDead(tok)
		if tok.Index >= len(tok.Peers) {
			m.barrierFinish(p, tok)
			return
		}
		m.peSendCurrent(p, tok)
		if p.barrier == tok {
			m.peDrainRecorded(p, tok)
		}
	case GB:
		if !m.gbMarkDead(tok) {
			return
		}
		m.stats.BarrierRepairs++
		m.gbMaybeAdvance(p, tok)
	}
}

// peSkipDead advances the PE index past dead peers.
func (m *MCP) peSkipDead(tok *BarrierToken) {
	if len(m.deadPeers) == 0 {
		return
	}
	for tok.Index < len(tok.Peers) && m.deadPeers[tok.Peers[tok.Index].Node] {
		tok.Index++
		m.stats.BarrierPeersSkipped++
	}
}

// gbMarkDead marks dead children as gathered and promotes the node to
// subtree root when its parent died. Reports whether anything changed.
func (m *MCP) gbMarkDead(tok *BarrierToken) bool {
	changed := false
	for i, ch := range tok.Children {
		if !tok.gatherFrom[i] && m.deadPeers[ch.Node] {
			tok.gatherFrom[i] = true
			m.stats.BarrierPeersSkipped++
			changed = true
		}
	}
	if !tok.Root && m.deadPeers[tok.Parent.Node] {
		// The parent died: nobody above will ever broadcast a release to
		// this subtree. Become its root — once the local gather completes,
		// gbComplete releases the surviving descendants.
		tok.Root = true
		m.stats.BarrierRootPromotions++
		changed = true
	}
	return changed
}

// ---------------------------------------------------------------------------
// Barrier watchdog: probing peers whose messages are overdue.
// ---------------------------------------------------------------------------

// armBarrierWatchdog starts the per-port barrier watchdog if detection is
// configured and it is not already running. The probe/exhaustion detector
// rides the reliable-barrier machinery, so the watchdog only arms when
// that mode is on.
func (m *MCP) armBarrierWatchdog(p *Port) {
	if !m.cfg.DetectFailures || !m.cfg.ReliableBarrier || m.cfg.Params.BarrierTimeout <= 0 {
		return
	}
	if p.watchdog != 0 {
		return
	}
	id := m.sim.After(m.cfg.Params.BarrierTimeout, func() {
		p.watchdog = 0
		m.watchdogFire(p)
	})
	p.watchdog = int64(id)
}

func (m *MCP) cancelBarrierWatchdog(p *Port) {
	if p.watchdog != 0 {
		m.sim.Cancel(sim.EventID(p.watchdog))
		p.watchdog = 0
	}
}

// watchdogFire runs when a barrier has been in flight for a full
// BarrierTimeout: probe every peer the barrier is still waiting on, then
// re-arm for the next round.
func (m *MCP) watchdogFire(p *Port) {
	if m.nic.Dead() || !p.open || p.barrier == nil {
		return
	}
	tok := p.barrier
	switch tok.Alg {
	case PE:
		if tok.Index < len(tok.Peers) {
			m.probePeer(p, tok.Peers[tok.Index])
		}
	case GB:
		for i, ch := range tok.Children {
			if !tok.gatherFrom[i] {
				m.probePeer(p, ch)
			}
		}
		if !tok.Root && tok.sentGather {
			m.probePeer(p, tok.Parent)
		}
	}
	m.armBarrierWatchdog(p)
}

// probePeer sends one liveness probe to an endpoint the barrier is waiting
// on, unless the connection is already proving itself: an outstanding
// probe, or any unacked traffic, will reach the retry budget on its own.
func (m *MCP) probePeer(p *Port, ep Endpoint) {
	if ep.Node == m.cfg.Node || m.deadPeers[ep.Node] {
		return
	}
	c := m.conn(ep.Node)
	if c.probeOut || len(c.barrierSent) > 0 || len(c.sentList) > 0 {
		return
	}
	c.probeOut = true
	m.stats.BarrierProbes++
	m.sendBarrierFrame(p, ep, BarrierProbeFrame)
}

// handleBarrierProbe answers a liveness probe: ack it (through the
// reliable-barrier preamble, so duplicates are suppressed like any barrier
// frame) and merge the gossiped dead set. Probes are deliberately port-
// agnostic beyond the ack — they assert NIC liveness, not port state.
func (m *MCP) handleBarrierProbe(f *Frame) {
	m.stats.BarrierRecvd++
	c := m.conn(f.SrcNode)
	if m.cfg.ReliableBarrier {
		if !c.barrierSeen[f.SrcPort].mark(f.Seq) {
			m.stats.BarrierDups++
			m.sendBarrierAck(c, f)
			return
		}
		m.sendBarrierAck(c, f)
	}
	if m.cfg.DetectFailures && len(f.Data) > 0 {
		m.mergeDeadSet(f.Data)
	}
}

// ---------------------------------------------------------------------------
// Dead-set gossip.
// ---------------------------------------------------------------------------

// encodeDeadSet serializes the dead set as ascending 4-byte little-endian
// node IDs, for the Data field of outgoing barrier frames.
func (m *MCP) encodeDeadSet() []byte {
	nodes := m.deadNodesSorted()
	b := make([]byte, 0, 4*len(nodes))
	for _, n := range nodes {
		b = binary.LittleEndian.AppendUint32(b, uint32(n))
	}
	return b
}

// mergeDeadSet folds a received dead set into this NIC's view, repairing
// in-flight barriers around any newly learned deaths.
func (m *MCP) mergeDeadSet(b []byte) {
	for ; len(b) >= 4; b = b[4:] {
		m.peerDied(network.NodeID(binary.LittleEndian.Uint32(b)))
	}
}
