// Package mcp implements the Myrinet Control Program: the firmware that GM
// loads onto the LANai NIC. It reproduces GM 1.2.3's structure as the paper
// describes it — four state machines (SDMA, SEND, RECV, RDMA), up to eight
// ports per NIC, per-connection reliability with sequence numbers,
// cumulative ACKs and go-back-N retransmission — plus the paper's additions:
// a barrier send token whose operation state lives on the NIC, in a per-port
// barrier slot (the paper's send-token pointer), a per-connection
// unexpected-barrier-message record, NIC-side execution of the
// pairwise-exchange (PE) and gather-and-broadcast (GB) barrier
// algorithms, the record-then-reject protocol for barriers
// addressed to closed ports, and an optional reliable-barrier mode
// (the separate acknowledgment mechanism of Section 4.4).
//
// All firmware work executes on the NIC's serializing processor (package
// lanai) with costs expressed in LANai cycles, so the same firmware runs
// proportionally faster on a LANai 7.2 than on a LANai 4.3 — the hardware
// comparison of Figure 5.
package mcp

import (
	"fmt"

	"gmsim/internal/network"
)

// FrameKind classifies a wire frame.
type FrameKind int

// Frame kinds. Data/Ack/Nack implement GM's reliable ordered channel;
// the Barrier* kinds are the paper's new packet types.
const (
	// DataFrame carries application bytes on the reliable channel.
	DataFrame FrameKind = iota
	// AckFrame cumulatively acknowledges data frames (AckSeq = next
	// expected sequence number).
	AckFrame
	// NackFrame negatively acknowledges: receiver expected AckSeq.
	NackFrame
	// BarrierPEFrame is a pairwise-exchange barrier message.
	BarrierPEFrame
	// BarrierGatherFrame is a GB gather-phase message (child -> parent).
	BarrierGatherFrame
	// BarrierBcastFrame is a GB broadcast-phase message (parent -> child).
	BarrierBcastFrame
	// BarrierAckFrame acknowledges a barrier frame (reliable-barrier mode).
	BarrierAckFrame
	// BarrierRejectFrame tells the sender its barrier message arrived for
	// a closed port and must be resent (Section 3.2's adopted protocol).
	BarrierRejectFrame
	// ReduceFrame carries a reduction partial up the collective tree
	// (Section 8 future work, implemented here).
	ReduceFrame
	// CollBcastFrame carries a broadcast/allreduce payload down the tree.
	CollBcastFrame
	// BarrierProbeFrame asks a peer whose barrier message is overdue to
	// prove it is alive. Probes ride the reliable-barrier machinery (own
	// seq, acked, retransmitted), so an unanswered probe exhausts the retry
	// budget and declares the peer dead — the failure-detection path.
	BarrierProbeFrame

	// releasedFrame is no wire kind: it stamps a frame that went back to its
	// NIC's free list (see MCP.releaseFrame). The codec cannot produce it.
	releasedFrame FrameKind = -1
)

var kindNames = [...]string{
	DataFrame:          "data",
	AckFrame:           "ack",
	NackFrame:          "nack",
	BarrierPEFrame:     "barrier-pe",
	BarrierGatherFrame: "barrier-gather",
	BarrierBcastFrame:  "barrier-bcast",
	BarrierAckFrame:    "barrier-ack",
	BarrierRejectFrame: "barrier-reject",
	ReduceFrame:        "coll-reduce",
	CollBcastFrame:     "coll-bcast",
	BarrierProbeFrame:  "barrier-probe",
}

func (k FrameKind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// HeaderBytes is the on-the-wire overhead of every frame: Myrinet header,
// GM header, CRC. Barrier frames are header-only.
const HeaderBytes = 16

// Frame is the firmware-level payload carried inside a network.Packet.
type Frame struct {
	Kind FrameKind

	SrcNode network.NodeID
	SrcPort int
	DstNode network.NodeID
	DstPort int

	// Seq is the data sequence number (DataFrame) or barrier sequence
	// number (Barrier* frames in reliable-barrier mode).
	Seq uint32
	// AckSeq is the cumulative acknowledgment (AckFrame: next expected;
	// NackFrame: expected; BarrierAckFrame: acked barrier seq).
	AckSeq uint32

	// Data is the application payload (DataFrame only).
	Data []byte

	// NoBuffer marks a NackFrame caused by receive-buffer exhaustion:
	// the peer is alive but cannot accept the message yet, so the sender
	// must retry later without counting toward connection death.
	NoBuffer bool

	// SrcEpoch is the sender port's open-generation at send time. The
	// closed-port protocol uses it to suppress resends from ports that
	// have since been closed or reopened.
	SrcEpoch int

	// OrigKind and OrigDstPort describe, inside a BarrierRejectFrame, the
	// rejected message so the origin can reconstruct it.
	OrigKind    FrameKind
	OrigDstPort int
}

// WireSize returns the frame's size on the wire in bytes.
func (f *Frame) WireSize() int { return HeaderBytes + len(f.Data) }

// CopyPayload implements network.PayloadCopier: a duplicated packet carries
// a frame of its own, which its receiver returns to a free list
// independently of the original's. Data is shared; no handler writes it.
func (f *Frame) CopyPayload() any {
	g := *f
	return &g
}

func (f *Frame) String() string {
	return fmt.Sprintf("%v %d:%d->%d:%d seq=%d ack=%d len=%d",
		f.Kind, f.SrcNode, f.SrcPort, f.DstNode, f.DstPort, f.Seq, f.AckSeq, len(f.Data))
}

// seqLess compares sequence numbers modulo 2^32 (RFC 1982 style): a < b iff
// 0 < (b-a) < 2^31. GM connections exchange monotonically increasing
// sequence numbers that wrap.
func seqLess(a, b uint32) bool {
	return a != b && b-a < 1<<31
}
