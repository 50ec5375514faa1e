package mcp

import (
	"gmsim/internal/network"
	"gmsim/internal/sim"
)

// Port is the NIC-side endpoint data structure: send/receive token state,
// the owner its host events go to, and — the paper's addition, its "pointer to
// the barrier send token" (Section 4.2) — the barrier slot, which holds the
// state of the port's barrier in flight, PE or GB, beside the collective slot.
type Port struct {
	num  int
	open bool
	// epoch increments on every Open; barrier frames carry it so the
	// closed-port protocol can tell stale messages from current ones.
	epoch int

	// recvTokens counts host-provided receive buffers (GM receive tokens)
	// that retired credit runs posted, less those consumed; the live runs add
	// what they have posted so far (MCP.credits), so the field alone may read
	// negative. It and sendsInFlight are int32s, one word together.
	recvTokens int32
	// sendsInFlight counts data sends posted but not yet completed,
	// bounded by Config.MaxSendTokens.
	sendsInFlight int32

	// slots are the port's two operation slots, barrierSlot and collSlot:
	// completion buffers, the posted-token flag, and the state of the
	// operation in flight (see treeSlot). They are independent: a root's
	// one-way Reduce can still be gathering when its port starts the next
	// barrier.
	slots [2]treeSlot

	// owner takes each completed host event, once the RDMA transfer that
	// writes the event record (and any data) into host memory has finished.
	owner HostReceiver
}

// Credit is what a host credit gives a port: a completion buffer of one of
// its operation slots (gm_provide_barrier_buffer and its collective twin),
// or a receive token (gm_provide_receive_buffer). The NIC runs no firmware
// task for either; it counts them.
type Credit int8

const (
	BarrierBuffer    Credit = barrierSlot
	CollectiveBuffer Credit = collSlot
	ReceiveToken     Credit = 2
)

// count is the port's own count of credits of kind c: what runs retired into
// it, less what was consumed.
func (p *Port) count(c Credit) *int32 {
	if c == ReceiveToken {
		return &p.recvTokens
	}
	return &p.slots[c].bufs
}

// creditRun is a run of host credits (MCP.ScheduleCredits): n credits of kind
// for port, the k-th posted at first.At + k·every by a doorbell that would
// have been scheduled with first's sequence number.
type creditRun struct {
	first sim.Key
	every sim.Time
	n     int32
	port  int8
	kind  Credit
}

// posted is how many of the run's credits the event now running sees: those
// whose doorbell would already have run (sim.Simulator.Passed).
func (r *creditRun) posted(s *sim.Simulator) int32 {
	t := s.Now()
	if !s.Passed(sim.Key{At: t, Seq: r.first.Seq}) {
		t--
	}
	switch {
	case t < r.first.At:
		return 0
	case r.every == 0:
		return r.n
	}
	return int32(min(int64(r.n), int64((t-r.first.At)/r.every)+1))
}

// Open reports whether the port is currently open.
func (p *Port) Open() bool { return p.open }

// pendingClosed records one barrier-class message that arrived for a closed
// port, the latest of its source endpoint's family
// (Section 3.2: "record received barrier messages for a closed port, but
// then reject those messages once the endpoint is opened").
type pendingClosed struct {
	src      Endpoint
	kind     FrameKind
	srcEpoch int
	dstPort  int
}

// unexpRec is one slot of the unexpected-barrier-message record. The paper
// stores a single bit per (connection, source port); the slot also keeps the
// message kind and destination port, three bytes in all, so consumption can
// be validated (a mismatch is counted as a protocol error rather than
// silently absorbed).
type unexpRec struct {
	kind    int8 // a FrameKind
	dstPort int8
	present bool
}

// collRec is one early collective message in a connection's FIFO: where it
// came from and went, and the payload it carried.
type collRec struct {
	data    []byte
	srcPort int8
	kind    int8 // a FrameKind
	dstPort int8
}

// Connection is the per-remote-NIC structure: reliable channel state plus
// the paper's unexpected-barrier-message record. One exists per peer a NIC
// has talked to, so it holds only what a protocol step reads and is kept to
// 304 bytes: the record is three bytes a source port, early collective
// messages share one FIFO, the retransmission timer is a pointer to a timer
// built by its first arm and carrying the connection to the package's one
// callback (timerEvent), and recovery counts live in the NIC's Stats, not per
// peer.
type Connection struct {
	// m is the card the connection belongs to, which a record or timer
	// carrying the connection leads its callback to.
	m    *MCP
	peer network.NodeID

	// route is the source route to the peer, as the Router returned it for the
	// first frame transmitted there (nil until then). Routes are a function
	// of the topology alone and never change once the fabric is built, so
	// later frames skip the lookup.
	route []byte

	// Reliable data channel (GM): next sequence to assign, next expected,
	// and the sent-but-unacked frames in order, kept by value so each
	// retransmission leases a wire frame of its own.
	sendSeq  uint32
	recvSeq  uint32
	sentList []Frame

	// Reliable-barrier mode state (Section 4.4's separate mechanism):
	// independent sequence space and in-flight list for barrier frames (by
	// value, like sentList's).
	barrierSendSeq uint32
	// probeOut is set while a liveness probe to this peer is unacknowledged,
	// so the watchdog does not pile probes onto a silent peer.
	probeOut    bool
	barrierSent []Frame
	// barrierSeen[srcPort] tracks which barrier seqs have been delivered
	// from that source port, for duplicate suppression of retransmits.
	barrierSeen [8]seqWindow

	// unexp is the unexpected-barrier-message record: one slot per source
	// port on the peer NIC ("one byte per connection", Section 3.1).
	unexp [8]unexpRec

	// collQ queues unexpected collective messages from every source port of
	// the peer, in arrival order (see MCP.record for why they need more than
	// the single-bit record).
	collQ []collRec

	// retrans is the retransmission timer, armed while traffic is
	// unacknowledged (nil until the first arm).
	retrans *sim.Timer
	// retryRounds counts consecutive timer firings without ack progress.
	retryRounds int
	// backoff is the current exponent of the retransmission interval, reset
	// on any acknowledgment progress.
	backoff int
}

// seqWindow remembers which sequence numbers have been delivered, over a
// sliding 64-entry window ending at the highest seq seen. A plain
// "latest seq" comparison is not enough: when the expected frame is lost,
// the peer's *next* frame (it may legitimately run one barrier ahead) can
// be consumed in its place, and the eventual retransmission of the lost,
// *older* frame must then still be accepted — it was never delivered.
type seqWindow struct {
	any  bool
	max  uint32
	bits uint64 // bit i set => seq (max - i) delivered
}

// mark records seq as delivered and reports whether it is new
// (false => duplicate). Seqs older than the 64-wide window are treated as
// duplicates; with at most a couple of frames outstanding per endpoint the
// window cannot be outrun.
func (w *seqWindow) mark(seq uint32) bool {
	if !w.any {
		w.any = true
		w.max = seq
		w.bits = 1
		return true
	}
	if seqLess(w.max, seq) {
		shift := seq - w.max
		if shift >= 64 {
			w.bits = 0
		} else {
			w.bits <<= shift
		}
		w.bits |= 1
		w.max = seq
		return true
	}
	back := w.max - seq
	if back >= 64 {
		return false // too old to tell: treat as duplicate
	}
	if w.bits&(1<<back) != 0 {
		return false
	}
	w.bits |= 1 << back
	return true
}
