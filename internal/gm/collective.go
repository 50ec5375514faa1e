package gm

import (
	"fmt"

	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/phase"
)

// Collective support: the host-side half of the Section 8 future work
// implemented in the firmware (mcp/tree.go). The call pattern mirrors
// the paper's barrier API: provide a completion buffer, post a token whose
// tree neighborhood the host computed, poll for the completion event.

// ProvideCollectiveBuffer posts one collective completion buffer.
func (pt *Port) ProvideCollectiveBuffer(p *host.Process) error {
	if !pt.open {
		return fmt.Errorf("gm: provide collective buffer on closed port %d", pt.num)
	}
	pt.collBufs++
	p.ComputePhase(p.Params().ProvideBufferCost, phase.HostPost, "provide_coll_buf")
	p.Proc().After(p.Params().DoorbellLatency, pt.collBufDoorbell)
	return nil
}

func (pt *Port) collBufRung() {
	if pt.unwritten() {
		return
	}
	if err := pt.mcp.PostCollectiveBuffer(pt.num); err != nil && pt.open {
		panic(fmt.Sprintf("gm: NIC rejected collective buffer: %v", err))
	}
}

// CollectiveSend initiates a NIC-based collective operation. Completion is
// reported by a CollDoneEvent carrying the token's tag and the result data.
func (pt *Port) CollectiveSend(p *host.Process, tok *mcp.CollToken) error {
	if !pt.open {
		return fmt.Errorf("gm: collective on closed port %d", pt.num)
	}
	if pt.collActive {
		return fmt.Errorf("gm: port %d collective already in flight", pt.num)
	}
	if pt.collBufs == 0 {
		return fmt.Errorf("gm: port %d has no collective buffer", pt.num)
	}
	// A token the firmware would refuse is refused here, before any host-side
	// state moves: past the doorbell there is no one to return the error to.
	if err := tok.Validate(); err != nil {
		return err
	}
	tok.SrcPort = pt.num
	pt.collActive = true
	pt.collBufs--
	p.ComputePhase(p.Params().BarrierPostCost, phase.HostPost, "gm_coll_send")
	pt.collPosted = tok
	p.Proc().After(p.Params().DoorbellLatency, pt.collTokDoorbell)
	return nil
}

func (pt *Port) collTokRung() {
	if pt.unwritten() {
		return
	}
	tok := pt.collPosted
	pt.collPosted = nil
	if err := pt.mcp.PostCollectiveToken(tok); err != nil {
		panic(fmt.Sprintf("gm: NIC rejected collective token: %v", err))
	}
}
