package mcp

import "gmsim/internal/sim"

// FirmwareParams gives the cost, in LANai processor cycles, of each firmware
// task. Costs are per task occurrence and execute serially on the NIC
// processor. The defaults are calibrated (see DESIGN.md "Calibration") so
// that a LANai 4.3 cluster reproduces the paper's measured host-based
// per-step cost (~45.5 µs) and NIC-based barrier step (~19.4 µs), and a
// LANai 7.2 cluster reproduces the corresponding ~30.1 µs and ~10.2 µs,
// using the same cycle counts at double the clock.
type FirmwareParams struct {
	// SDMAPoll: the SDMA state machine noticing and fetching a send token
	// posted by the host.
	SDMAPoll int64
	// SDMAPrep: building a data packet after the host-to-NIC DMA finishes.
	SDMAPrep int64
	// SendXmit: the SEND state machine handing one prepared packet to the
	// transmit interface.
	SendXmit int64
	// RecvData: the RECV state machine receiving and classifying a data
	// packet, including the sequence check.
	RecvData int64
	// RecvCtl: receiving an ACK or NACK.
	RecvCtl int64
	// AckGen: the RDMA state machine constructing an ACK or NACK packet.
	AckGen int64
	// RDMAProc: processing a receive token and setting up the NIC-to-host
	// DMA plus the host event record.
	RDMAProc int64
	// Retrans: requeueing one sent-list entry during go-back-N rewind.
	Retrans int64
	// SentEvtProc: preparing a send-completion event for the host after
	// an ACK retires a send token.
	SentEvtProc int64

	// BarrierToken: the SDMA machine processing a barrier send token
	// posted by the host (gm_barrier_send_with_callback).
	BarrierToken int64
	// BarrierPrep: preparing one outgoing barrier packet.
	BarrierPrep int64
	// BarrierRecv: handling one received barrier packet, including the
	// unexpected-record bit operations.
	BarrierRecv int64
	// BarrierComplete: detecting completion and setting up the
	// completion event for the host.
	BarrierComplete int64
	// GBPrep: preparing one outgoing GB barrier packet (gather or
	// broadcast): unlike PE's fixed next-peer slot, the firmware walks the
	// tree neighborhood in the token to build each packet.
	GBPrep int64
	// GBRecv: handling one received GB barrier packet (gather or
	// broadcast): mark the child's bit and test the gather count, or
	// trigger completion. Cheaper than the PE receive, which must also
	// update the peer index and queue the next send.
	GBRecv int64
	// GBToken: additional cost of processing a GB barrier token (copying
	// the tree neighborhood and initializing the gather state on the
	// NIC). This fixed per-barrier cost is what makes the 2-node
	// NIC-based GB barrier slower than its host-based counterpart in
	// Figure 5(a) — "because of the overhead of processing the barrier
	// algorithm at the NIC" (Section 6).
	GBToken int64

	// CollPrep: preparing one outgoing collective packet. Cheaper than
	// the GB barrier's prep: forwarding a payload pointer down the tree
	// involves none of the barrier's per-step record bookkeeping.
	CollPrep int64
	// CollPerElem: per-element (8-byte) cost of handling collective
	// payloads on the NIC: reduction combining or broadcast payload copy.
	CollPerElem int64

	// CRCCheck: detecting and discarding a packet whose CRC fails
	// (corrupted or truncated on the wire).
	CRCCheck int64

	// RetransTimeout is the go-back-N retransmission timeout for unacked
	// data (and, in reliable-barrier mode, barrier) packets — the base
	// interval before backoff.
	RetransTimeout sim.Time
	// RetransBackoffMax caps the exponentially backed-off retransmission
	// timeout: each timer round without acknowledgment progress doubles
	// the interval up to this ceiling, so a dead or partitioned peer
	// cannot hold the firmware in a fixed-period retransmit storm.
	// <= RetransTimeout disables backoff (the pre-hardening behavior).
	RetransBackoffMax sim.Time
	// RetransJitterPct adds a deterministic seeded jitter of up to this
	// percentage to every retransmission interval, de-synchronizing peers
	// that lost packets at the same instant. 0 disables jitter.
	RetransJitterPct float64
	// MaxRetries bounds consecutive timer-driven retransmission rounds
	// with no acknowledgment progress; beyond it GM declares the
	// connection dead, drops the unacknowledged traffic and returns the
	// send tokens to the host marked failed.
	MaxRetries int
	// LoopbackDelay is the NIC-internal latency for a message whose
	// destination is the same NIC (no wire traversal).
	LoopbackDelay sim.Time
	// BarrierTimeout is the barrier watchdog interval: while a barrier is
	// in flight and Config.DetectFailures is on, the firmware probes every
	// peer it is still waiting on each time this interval passes without
	// completion. 0 (the default) disables the watchdog, so zero-fault
	// runs schedule no extra events and stay bit-identical.
	BarrierTimeout sim.Time
}

// DefaultFirmwareParams returns the calibrated firmware costs.
// See DESIGN.md for the derivation from the paper's measurements.
func DefaultFirmwareParams() FirmwareParams {
	return FirmwareParams{
		SDMAPoll:    150,
		SDMAPrep:    214,
		SendXmit:    40,
		RecvData:    270,
		RecvCtl:     60,
		AckGen:      50,
		RDMAProc:    250,
		Retrans:     40,
		SentEvtProc: 60,

		BarrierToken:    180,
		BarrierPrep:     163,
		BarrierRecv:     415,
		BarrierComplete: 150,
		GBPrep:          320,
		GBRecv:          100,
		GBToken:         400,
		CollPrep:        150,
		CollPerElem:     12,

		CRCCheck: 45,

		RetransTimeout:    1 * sim.Millisecond,
		RetransBackoffMax: 16 * sim.Millisecond,
		RetransJitterPct:  10,
		MaxRetries:        100,
		LoopbackDelay:     500 * sim.Nanosecond,
	}
}

// Config configures the firmware of a block of cards (NewMCPs).
type Config struct {
	// NumPorts is the number of communication endpoints the NIC exposes.
	// GM 1.2.3 allows eight.
	NumPorts int
	// Params are the firmware task costs.
	Params FirmwareParams
	// ReliableBarrier enables the separate barrier acknowledgment and
	// retransmission mechanism of Section 4.4. The paper benchmarked with
	// it disabled ("our current implementation, which uses unreliable
	// barrier packets"), so it defaults off; tests enable it together with
	// packet loss.
	ReliableBarrier bool
	// ClearUnexpectedOnOpen selects the naive Section 3.2 alternative
	// (clear the unexpected record when a port opens) instead of the
	// adopted record-then-reject protocol. For the ablation bench only.
	ClearUnexpectedOnOpen bool
	// LoopbackFlag enables the Section 3.4 optimization: a barrier
	// message between two ports of the same NIC sets the unexpected flag
	// directly instead of traversing the packet path. Off by default to
	// match the paper's implementation status.
	LoopbackFlag bool
	// DetectFailures enables crash-fault detection and degraded barrier
	// membership: retry-budget exhaustion declares the peer dead instead of
	// silently dropping its traffic, in-flight barriers repair themselves
	// around dead peers (PE skips them; GB marks dead children gathered and
	// promotes orphaned subtrees to root), and completion events carry the
	// dead-node set. Requires ReliableBarrier for the probe/exhaustion path
	// to function. Off by default: the paper's protocol hangs on a crashed
	// peer, and the zero-fault timing contract depends on none of this
	// machinery scheduling events.
	DetectFailures bool
	// MaxSendTokens bounds outstanding sends per port (GM flow control).
	MaxSendTokens int
	// CollUnexpCap bounds the per-endpoint queue of early collective
	// messages; beyond it messages are dropped and counted as protocol
	// errors (the producer has run too far ahead without synchronizing).
	CollUnexpCap int
}

// DefaultConfig returns a GM 1.2.3-like configuration.
func DefaultConfig() Config {
	return Config{
		NumPorts:      8,
		Params:        DefaultFirmwareParams(),
		MaxSendTokens: 16,
		CollUnexpCap:  256,
	}
}

// Stats counts firmware-level events, for tests and the harness.
type Stats struct {
	DataSent        int64
	DataRecv        int64
	DataDelivered   int64
	AcksSent        int64
	NacksSent       int64
	Retransmissions int64
	Duplicates      int64
	OutOfOrder      int64
	NoRecvToken     int64
	// CorruptDrops counts packets discarded because their CRC failed
	// (wire corruption or truncation).
	CorruptDrops int64
	// TimerFires counts retransmission-timer expirations that found
	// unacknowledged traffic; Backoffs counts the subset that grew the
	// next interval (exponential backoff engaged).
	TimerFires int64
	Backoffs   int64

	BarrierSent      int64
	BarrierRecvd     int64
	BarrierUnexp     int64
	BarrierCompleted int64
	BarrierRejects   int64
	BarrierResends   int64
	BarrierDups      int64
	ClosedPortRecs   int64
	ProtocolErrors   int64
	ConnFailures     int64

	// Failure detection and degraded-membership repair (DetectFailures).
	// BarrierProbes counts liveness probes sent by the barrier watchdog;
	// PeersDeclaredDead counts peers this NIC gave up on (directly or by
	// hearing a dead-set from another survivor); BarrierPeersSkipped counts
	// dead participants a repair removed from an in-flight barrier;
	// BarrierRootPromotions counts GB subtrees that elected themselves root
	// after their parent died; BarrierRepairs counts repair passes that
	// changed an in-flight barrier's state.
	BarrierProbes         int64
	PeersDeclaredDead     int64
	BarrierPeersSkipped   int64
	BarrierRootPromotions int64
	BarrierRepairs        int64

	CollSent      int64
	CollRecvd     int64
	CollCompleted int64
	CollCombines  int64
}
