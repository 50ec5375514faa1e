package gm

import (
	"fmt"

	"gmsim/internal/host"
	"gmsim/internal/phase"
)

// Mirrors is the port's host-side view of the NIC's tokens: receive buffers
// provided and not yet consumed, sends in flight, and per operation slot
// (barrier, collective) the completion buffers provided and not yet claimed
// and whether a token is posted and its completion not yet received.
type Mirrors struct {
	RecvBufs, SendsInFlight int
	SlotBufs                [2]int32
	SlotActive              [2]bool
}

// Mirrors returns the port's host-side mirrors of NIC state.
func (pt *Port) Mirrors() Mirrors {
	m := Mirrors{RecvBufs: pt.recvBufs, SendsInFlight: pt.sendsInFlight}
	for i, s := range pt.slots {
		m.SlotBufs[i], m.SlotActive[i] = s.bufs, s.active
	}
	return m
}

// ProvideReceiveBufferByDoorbell is ProvideReceiveBuffer with the doorbell
// rung whatever the NIC could take: the form a one-token schedule stands
// for, kept for the differential that holds the schedule to it.
func (pt *Port) ProvideReceiveBufferByDoorbell(p *host.Process) error {
	if !pt.open {
		return fmt.Errorf("gm: provide buffer on closed port %d", pt.num)
	}
	pt.recvBufs++
	p.ComputePhase(p.Params().ProvideBufferCost, phase.HostRecv, "provide_recv_buf")
	p.Proc().After(p.Params().DoorbellLatency, pt.recvDoorbell)
	return nil
}
