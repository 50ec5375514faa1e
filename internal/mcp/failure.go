package mcp

import (
	"encoding/binary"

	"gmsim/internal/network"
)

// Crash-fault detection and degraded membership (Config.DetectFailures).
// The paper's protocol assumes fail-free peers: a node that crashes
// mid-barrier leaves every neighbor retransmitting into silence forever (or,
// at retry exhaustion, silently dropping the traffic and hanging the
// operation). This file turns retry-budget exhaustion into a failure
// detector and repairs the operation in flight in either slot of a port — a
// PE or GB barrier, or a collective — around the dead:
//
//   - detection: unacked traffic toward a peer exhausts MaxRetries →
//     failConnection → peerDied. A watchdog per slot (FirmwareParams.
//     BarrierTimeout) covers the receive-only case — a node waiting on a
//     message with nothing of its own in flight sends a BarrierProbeFrame
//     through the reliable-barrier machinery, so an unanswered probe also
//     exhausts and detects.
//   - repair: PE skips dead peers in its exchange schedule; a tree operation
//     marks dead children as gathered and a node whose parent died promotes
//     itself to subtree root (leader re-election by orphaning), completing
//     and releasing its own subtree — for a collective with what the subtree
//     holds: a partial sum, no broadcast payload, no assembled array.
//   - convergence: barrier frames gossip the sender's dead set, so
//     survivors that never talked to the dead node still learn of it and
//     report the same survivor set in their completion events. Collective
//     frames do not (see encodeDeadSet).
//
// Everything here is gated: with DetectFailures off (the default) no
// events are scheduled, no frame bytes change, and the firmware behaves
// exactly as the paper describes.

// peerDied records peer as fail-stopped and repairs every in-flight
// operation on this NIC around it. Idempotent; self-death is ignored.
func (m *MCP) peerDied(peer network.NodeID) {
	if peer == m.node || m.deadPeers[peer] {
		return
	}
	if m.deadPeers == nil {
		m.deadPeers = make(map[network.NodeID]bool)
	}
	m.deadPeers[peer] = true
	m.stats.PeersDeclaredDead++
	c := m.conn(peer)
	c.probeOut = false
	if len(c.sentList) > 0 || len(c.barrierSent) > 0 {
		// Anything still in flight toward the corpse will never be acked:
		// fail it now (the recursive peerDied is cut by the map check).
		m.failConnection(c)
	}
	for n := range m.ports {
		p := &m.ports[n]
		if !p.open {
			continue
		}
		for i := range p.slots {
			if p.slots[i].live && m.treeMarkDead(&p.slots[i]) {
				m.stats.BarrierRepairs++
				m.treeAdvance(p, &treeFamilies[i])
			}
		}
	}
}

// peSkipDead moves a PE exchange past the dead peers at its index, reporting
// whether it moved. Later dead peers are skipped when the exchange reaches
// them. Returns at once when nothing has died.
func (m *MCP) peSkipDead(s *treeSlot) bool {
	if len(m.deadPeers) == 0 {
		return false
	}
	from := s.next
	for int(s.next) < len(s.children) && m.deadPeers[s.children[s.next].Node] {
		s.next++
		m.stats.BarrierPeersSkipped++
	}
	return s.next != from
}

// treeMarkDead takes the dead out of an operation: a dead child counts as
// gathered, with nothing absorbed, and a node whose parent died promotes
// itself to subtree root (leader re-election by orphaning); a PE exchange
// waiting on a dead peer moves past it. Reports whether anything changed.
func (m *MCP) treeMarkDead(s *treeSlot) bool {
	if s.pe {
		return m.peSkipDead(s)
	}
	changed := false
	for i, ch := range s.children {
		if !s.got[i] && m.deadPeers[ch.Node] {
			s.got[i] = true
			m.stats.BarrierPeersSkipped++
			changed = true
		}
	}
	if !s.root && m.deadPeers[s.parent.Node] {
		// The parent died: nobody above will ever release this subtree.
		// Become its root — once the local gather completes, treeAdvance
		// releases the surviving descendants with what the subtree has.
		s.root = true
		m.stats.BarrierRootPromotions++
		changed = true
	}
	return changed
}

// ---------------------------------------------------------------------------
// Watchdog: probing peers whose messages are overdue.
// ---------------------------------------------------------------------------

// armWatchdog starts a slot's watchdog if detection is configured and it is
// not already running. The probe/exhaustion detector rides the
// reliable-barrier machinery, so the watchdog only arms when that mode is on.
func (m *MCP) armWatchdog(s *treeSlot) {
	if !m.cfg.DetectFailures || !m.cfg.ReliableBarrier || m.cfg.Params.BarrierTimeout <= 0 {
		return
	}
	if s.watchdog == nil {
		s.watchdog = m.sim.NewTimer(timerEvent, s)
	} else if s.watchdog.Armed() {
		return
	}
	s.watchdog.Arm(m.sim.Now() + m.cfg.Params.BarrierTimeout)
}

func (m *MCP) cancelWatchdog(s *treeSlot) {
	if s.watchdog != nil {
		s.watchdog.Disarm()
	}
}

// resetSlots clears the port's operation slots for a new program, keeping
// each slot's watchdog timer, disarmed.
func (p *Port) resetSlots() {
	for i := range p.slots {
		p.slots[i] = treeSlot{watchdog: p.slots[i].watchdog}
	}
}

// watchdogFire runs when a slot's operation has been in flight for a full
// BarrierTimeout: probe every peer it is still waiting on — for PE the
// current peer; for a tree walk the children not yet gathered and, once
// through the up phase, the parent — then re-arm for the next round.
func (m *MCP) watchdogFire(p *Port, s *treeSlot) {
	if m.nic.Dead() || !p.open || !s.live {
		return
	}
	if s.pe {
		if peer, ok := s.peCurrent(); ok {
			m.probePeer(p, peer)
		}
	} else {
		for i, ch := range s.children {
			if !s.got[i] {
				m.probePeer(p, ch)
			}
		}
		if !s.root && s.upDone {
			m.probePeer(p, s.parent)
		}
	}
	m.armWatchdog(s)
}

// probePeer sends one liveness probe to an endpoint an operation is waiting
// on, unless the connection is already proving itself: an outstanding
// probe, or any unacked traffic, will reach the retry budget on its own.
func (m *MCP) probePeer(p *Port, ep Endpoint) {
	if ep.Node == m.node || m.deadPeers[ep.Node] {
		return
	}
	c := m.conn(ep.Node)
	if c.probeOut || len(c.barrierSent) > 0 || len(c.sentList) > 0 {
		return
	}
	c.probeOut = true
	m.stats.BarrierProbes++
	m.sendBarrierFrame(c, p.num, p.epoch, ep.Port, BarrierProbeFrame, nil, false)
}

// ---------------------------------------------------------------------------
// Dead-set gossip.
// ---------------------------------------------------------------------------

// encodeDeadSet serializes the dead set as ascending 4-byte little-endian
// node IDs, for the Data field of outgoing barrier frames (PE, GB, probes).
// Collective frames carry their payload in Data, so they gossip nothing: a
// survivor that only ever exchanges collective frames learns of a death
// first-hand (its own retry budget or watchdog) or not at all, and
// completion events of one collective can name different dead sets.
func (m *MCP) encodeDeadSet() []byte {
	nodes := m.deadNodesSorted()
	b := make([]byte, 0, 4*len(nodes))
	for _, n := range nodes {
		b = binary.LittleEndian.AppendUint32(b, uint32(n))
	}
	return b
}

// mergeDeadSet folds a received dead set into this NIC's view, repairing
// in-flight operations around any newly learned deaths.
func (m *MCP) mergeDeadSet(b []byte) {
	for ; len(b) >= 4; b = b[4:] {
		m.peerDied(network.NodeID(binary.LittleEndian.Uint32(b)))
	}
}
