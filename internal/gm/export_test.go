package gm

import (
	"fmt"

	"gmsim/internal/host"
	"gmsim/internal/mcp"
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

// ProvideReceiveBufferByDoorbell is ProvideReceiveBuffer as a doorbell: an
// event one DoorbellLatency after the call returns that credits the NIC at
// once, dropped if the call was never made or the program has closed the
// port since. It is the form a one-credit run stands for, kept for the
// differentials that hold the run to it.
func (pt *Port) ProvideReceiveBufferByDoorbell(p *host.Process) error {
	if !pt.open {
		return fmt.Errorf("gm: provide buffer on closed port %d", pt.num)
	}
	pt.recvBufs++
	p.ComputePhase(p.Params().ProvideBufferCost, phase.HostRecv, "provide_recv_buf")
	pt.ring(p, mcp.ReceiveToken)
	return nil
}

// ProvideBarrierBufferByDoorbell is ProvideBarrierBuffer as a doorbell, and
// ProvideCollectiveBufferByDoorbell its collective twin: the completion-buffer
// forms of ProvideReceiveBufferByDoorbell.
func (pt *Port) ProvideBarrierBufferByDoorbell(p *host.Process) error {
	return pt.provideByDoorbell(p, &pt.slots[barrierSlot])
}

func (pt *Port) ProvideCollectiveBufferByDoorbell(p *host.Process) error {
	return pt.provideByDoorbell(p, &pt.slots[collSlot])
}

func (pt *Port) provideByDoorbell(p *host.Process, s *slot) error {
	if !pt.open {
		return fmt.Errorf("gm: provide %s buffer on closed port %d", s.fam.noun, pt.num)
	}
	s.bufs++
	p.ComputePhase(p.Params().ProvideBufferCost, phase.HostPost, s.fam.provideLabel)
	pt.ring(p, s.fam.buffer)
	return nil
}

// ring schedules the doorbell of one credit of kind c. When it rings, the
// credit is a run whose one doorbell rang a nanosecond before: every event
// from then on sees it, as it would a counter the doorbell bumped.
func (pt *Port) ring(p *host.Process, c mcp.Credit) {
	pt.sim.At(p.Now()+p.Params().DoorbellLatency, func() {
		if pt.unwritten() || !pt.open {
			return
		}
		if err := pt.mcp.ScheduleCredits(pt.num, c, 1, pt.sim.Now()-1, 0); err != nil {
			panic(fmt.Sprintf("gm: NIC rejected a credit: %v", err))
		}
	})
}
