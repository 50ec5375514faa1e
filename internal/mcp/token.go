package mcp

import (
	"fmt"

	"gmsim/internal/network"
)

// Endpoint names a communication endpoint: a (node, port) pair.
type Endpoint struct {
	Node network.NodeID
	Port int
}

func (e Endpoint) String() string { return fmt.Sprintf("%d:%d", e.Node, e.Port) }

// SendToken is a host-filled descriptor for one reliable data send
// (GM's send token).
type SendToken struct {
	SrcPort int
	Dst     Endpoint
	Data    []byte
}

// BarrierAlg selects the barrier algorithm a barrier token executes.
type BarrierAlg int

const (
	// PE is the pairwise-exchange algorithm used in MPICH.
	PE BarrierAlg = iota
	// GB is the gather-and-broadcast algorithm over a fixed-dimension tree.
	GB
)

func (a BarrierAlg) String() string {
	if a == PE {
		return "PE"
	}
	return "GB"
}

// BarrierToken is the paper's barrier send token: what the host computed for
// one barrier operation of one port. The firmware only reads it: the token is
// read into the port's barrier slot when the SDMA state machine processes it,
// and the barrier's NIC-resident state — PE's "node index" (Section 4.2), GB's
// gather state — lives there (tree.go). The host may refill and post the same
// token again once the completion event is out (core.Comm does).
type BarrierToken struct {
	Alg     BarrierAlg
	SrcPort int

	// PE: the peer list computed by the host, in exchange order.
	Peers []Endpoint

	// GB: the tree neighborhood computed by the host. Root is true when
	// this node is the tree root (no parent).
	Root     bool
	Parent   Endpoint
	Children []Endpoint
}

// HostEventKind classifies events the NIC delivers to the host through a
// port's receive queue.
type HostEventKind int

const (
	// RecvEvent: a data message arrived; Data holds the payload.
	RecvEvent HostEventKind = iota
	// SentEvent: a send completed (its packet was acknowledged); the
	// send token is back with the host.
	SentEvent
	// BarrierDoneEvent: the paper's GM_BARRIER_COMPLETED_EVENT.
	BarrierDoneEvent
	// CollDoneEvent: a NIC-based collective completed; Data carries the
	// result (broadcast payload or reduction result).
	CollDoneEvent
)

func (k HostEventKind) String() string {
	switch k {
	case RecvEvent:
		return "recv"
	case SentEvent:
		return "sent"
	case BarrierDoneEvent:
		return "barrier-done"
	case CollDoneEvent:
		return "coll-done"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// HostEvent is one entry in a port's host-visible event queue.
type HostEvent struct {
	Kind HostEventKind
	// Src identifies the sender (RecvEvent).
	Src Endpoint
	// Data is the received payload (RecvEvent) or the collective's result
	// (CollDoneEvent).
	Data []byte
	// Failed marks a SentEvent whose message could not be delivered: the
	// connection was declared dead after MaxRetries retransmission rounds.
	Failed bool
	// DeadNodes, on a BarrierDoneEvent or CollDoneEvent under
	// DetectFailures, is the set of peers this NIC considered fail-stopped
	// when the operation completed (ascending). One that completed degraded
	// — around crashed participants — reports them here; nil on a clean
	// completion.
	DeadNodes []network.NodeID
}

// eventRecordBytes is the size of the DMA that posts a host event record
// (GM writes a small descriptor into host memory; data adds to it).
const eventRecordBytes = 16
