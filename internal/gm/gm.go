// Package gm is the host-side GM library: the API a user program calls to
// communicate through an opened port, as in Myricom's GM 1.2.3, plus the
// two functions the paper adds for NIC-based barriers
// (ProvideBarrierBuffer and BarrierSend, modeling
// gm_provide_barrier_buffer and gm_barrier_send_with_callback).
//
// Every call charges the calling process the host CPU cost of the real
// call and models the PCI doorbell latency before the NIC can observe the
// request. Completion flows back through the port's host event queue,
// which the process reads with ReceiveFor (blocking) or TryReceive (polling,
// for fuzzy barriers).
//
// The charges are leads on the process's clock (host.Process.ComputePhase),
// so the NIC sees each request at the instant it would have had the process
// slept through every charge. A request that starts firmware work — a send,
// a barrier or collective token — rings a doorbell, scheduled with the
// process's After. A credit — a receive buffer, a completion buffer — rings
// none: the NIC runs no task for it, so it is handed over as a run of
// credits due at those instants (mcp.MCP.ScheduleCredits), counted when the
// firmware reads them. A port's only inputs are its event queue, which the
// NIC appends to and this process alone consumes, and the NIC state Open
// and Close touch directly; ReceiveFor therefore waits without settling the
// lead, and the calls that look at anything else settle first.
// A blocking receive names what it waits for (ReceiveFor): an event that
// does not end the wait is paid for and filed by the event loop while the
// process stays parked, so the process is resumed only for the one it wants.
package gm

import (
	"errors"
	"fmt"

	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/mem"
	"gmsim/internal/phase"
	"gmsim/internal/sim"
)

// eventPhase maps a host event kind to the Section 2.2 phase its handling
// cost belongs to: data receive work is HostRecv, send-completion
// retirement is HostSend (tail of the send path), barrier and collective
// completions are HostDone (Equation 2's HRecv). The split is what lets the
// conformance tests assert a NIC-level barrier spends bit-exactly zero time
// in HostSend/HostRecv.
func eventPhase(k mcp.HostEventKind) phase.Phase {
	switch k {
	case mcp.RecvEvent:
		return phase.HostRecv
	case mcp.SentEvent:
		return phase.HostSend
	default: // an operation slot's completion
		return phase.HostDone
	}
}

// Port is an open communication endpoint as seen from the host.
type Port struct {
	sim   *sim.Simulator
	mcp   *mcp.MCP
	owner *host.Process // opened the port and drives it
	num   int
	open  bool

	// events is the host-visible event queue. evHead indexes the next
	// unconsumed entry; when the queue drains the slice rewinds to its
	// start so steady-state traffic reuses one backing array. first backs
	// it until more than one event is queued at once, which a NIC-level
	// barrier never does.
	events []mcp.HostEvent
	evHead int
	first  [1]mcp.HostEvent
	sig    sim.Signal
	// waiter is the owner's wait while it is parked in ReceiveFor (nil
	// otherwise): HandleHostEvent retires an event that does not end it.
	waiter Waiter

	// Host-side mirrors of NIC state, kept exact because each port is
	// driven by a single sequential process.
	sendsInFlight int
	recvBufs      int
	slots         [2]slot // barrierSlot, collSlot

	// Sends crossing the PCI bus: what the NIC sees one DoorbellLatency
	// after the host call returns. Every request of a port takes the same
	// latency, so the queue is FIFO, and the doorbell (sendRung) needs only
	// the port.
	sendsPosted []mcp.SendToken
}

// The port's two operation slots, as in the firmware (mcp/tree.go): a
// barrier and a collective — the paper's Section 8 future work — can be in
// flight at once.
const (
	barrierSlot = iota
	collSlot
)

// family is what differs between the paper's two barrier calls and their
// collective twins: the noun in errors, the phase labels of the provide,
// post and completion charges, the completion event, the credit a buffer
// is, and the NIC entry point for a token. The bodies read these; they never
// ask which family they run.
type family struct {
	noun                               string
	provideLabel, postLabel, doneLabel string
	done                               mcp.HostEventKind
	buffer                             mcp.Credit
	postToken                          func(m *mcp.MCP, tok any) error
}

var families = [2]family{
	barrierSlot: {
		noun: "barrier", provideLabel: "provide_bar_buf", postLabel: "gm_barrier_send", doneLabel: "bar_done",
		done: mcp.BarrierDoneEvent, buffer: mcp.BarrierBuffer,
		postToken: func(m *mcp.MCP, tok any) error { return m.PostBarrierToken(tok.(*mcp.BarrierToken)) },
	},
	collSlot: {
		noun: "collective", provideLabel: "provide_coll_buf", postLabel: "gm_coll_send", doneLabel: "coll_done",
		done: mcp.CollDoneEvent, buffer: mcp.CollectiveBuffer,
		postToken: func(m *mcp.MCP, tok any) error { return m.PostCollectiveToken(tok.(*mcp.CollToken)) },
	},
}

// slot is the host-side mirror of one of the NIC's operation slots of the
// port. bufs is an int32, as in the firmware's slot: packed with active it
// keeps the Port inside a 240-byte allocation.
type slot struct {
	fam    *family
	bufs   int32 // completion buffers provided and not yet claimed by a post
	active bool  // a token is posted and its completion event not yet received
	// posted is the token crossing the PCI bus (one at a time: active); pt
	// is the slot's port, for the token's doorbell (tokRung).
	posted any
	pt     *Port
}

// Open opens port number num on the given NIC firmware for the calling
// process: Port.Open on a port of its own.
func Open(p *host.Process, m *mcp.MCP, num int) (*Port, error) {
	pt := new(Port)
	if err := pt.Open(p, m, num); err != nil {
		return nil, err
	}
	return pt, nil
}

// Open opens pt, a port in memory the caller owns that is not open, as port
// number num on the given NIC firmware for the calling process: a harness
// keeps each rank's port in the rank's cell (experiments.Session). It models
// the driver path (open is not on any fast path, so no fine-grained cost
// accounting is applied beyond a doorbell).
func (pt *Port) Open(p *host.Process, m *mcp.MCP, num int) error {
	*pt = Port{
		sim:   m.NIC().Sim(),
		mcp:   m,
		owner: p,
		num:   num,
	}
	pt.events = pt.first[:0]
	for i := range pt.slots {
		pt.slots[i].fam, pt.slots[i].pt = &families[i], pt
	}
	p.Proc().Sync() // the driver call reaches into the NIC now, not a doorbell later
	if err := m.OpenPort(num, pt); err != nil {
		return err
	}
	pt.open = true
	p.Compute(p.Params().DoorbellLatency)
	return nil
}

// HandleHostEvent implements mcp.HostReceiver: it runs at the instant the
// NIC finishes DMAing an event record into host memory. An event the parked
// owner would only pay for, file and park again on is retired here, at the
// instant the wake would have run it: the charges are leads on the owner's
// clock either way (sim.Proc.Advance), and the owner stays on the signal's
// wait list. A killed owner's events queue
// up unread, as its wakes are dropped. ev is the NIC's record, valid for the
// call: the port copies it once, where it files or queues it.
func (pt *Port) HandleHostEvent(ev *mcp.HostEvent) {
	if w := pt.waiter; w != nil && pt.PendingEvents() == 0 && !pt.owner.Proc().Killed() && !w.Ends(ev.Kind, ev.Src) {
		pt.charge(pt.owner, ev.Kind)
		w.File(ev)
		return
	}
	pt.events = append(pt.events, *ev)
	pt.sig.Fire()
}

// Close closes the port. Like Open it reaches into the NIC directly, so the
// process that drives the port settles its lead first.
func (pt *Port) Close() error {
	if !pt.open {
		return fmt.Errorf("gm: port %d already closed", pt.num)
	}
	pt.owner.Proc().Sync()
	pt.open = false
	return pt.mcp.ClosePort(pt.num)
}

// unwritten reports that the doorbell now ringing was never written: the
// process scheduled it while its clock led the event loop and crashed before
// the loop reached the call.
func (pt *Port) unwritten() bool {
	return pt.owner.Proc().KilledBy(pt.sim.Now() - pt.owner.Params().DoorbellLatency)
}

// Num returns the port number.
func (pt *Port) Num() int { return pt.num }

// PendingEvents returns the number of host events queued but not received.
func (pt *Port) PendingEvents() int { return len(pt.events) - pt.evHead }

// ErrNoSendTokens is wrapped by Send when every send token of the port is in
// flight. It is the one Send failure a caller recovers from: receiving a
// SentEvent returns a token.
var ErrNoSendTokens = errors.New("out of send tokens")

// Send posts a reliable data send (gm_send_with_callback, less the callback
// context, which no simulated program uses). It returns as soon as the token
// is handed to the NIC; a SentEvent arrives once the message is
// acknowledged.
func (pt *Port) Send(p *host.Process, dst mcp.Endpoint, data []byte) error {
	if !pt.open {
		return fmt.Errorf("gm: send on closed port %d", pt.num)
	}
	if pt.sendsInFlight >= pt.mcp.MaxSendTokens() {
		return fmt.Errorf("gm: port %d: %w (%d in flight)", pt.num, ErrNoSendTokens, pt.sendsInFlight)
	}
	pt.sendsInFlight++
	p.ComputePhase(p.Params().EffectiveSendCost(), phase.HostSend, "gm_send")
	pt.sendsPosted = append(pt.sendsPosted, mcp.SendToken{SrcPort: pt.num, Dst: dst, Data: data})
	pt.sim.AtCall(p.Now()+p.Params().DoorbellLatency, sendRung, pt)
	return nil
}

// sendRung is a send's doorbell, its argument the port: the NIC takes the
// oldest send crossing the bus.
func sendRung(a any) {
	pt := a.(*Port)
	if pt.unwritten() {
		return
	}
	if err := pt.mcp.PostSendToken(mem.PopFront(&pt.sendsPosted)); err != nil {
		// The host-side mirror should have caught every failure mode.
		panic(fmt.Sprintf("gm: NIC rejected send: %v", err))
	}
}

// ProvideReceiveBuffer posts one receive buffer
// (gm_provide_receive_buffer_with_tag): ProvideReceiveBuffers of one.
func (pt *Port) ProvideReceiveBuffer(p *host.Process) error { return pt.ProvideReceiveBuffers(p, 1) }

// ProvideReceiveBuffers posts n receive buffers, as n back-to-back
// gm_provide_receive_buffer calls would: the process is charged n times the
// cost of one call, a lead on its clock, and the NIC sees buffer k one
// DoorbellLatency after the k-th call would have returned. It rings no
// doorbell: the NIC is handed the doorbells' arithmetic schedule
// (mcp.MCP.ScheduleCredits) and counts the tokens posted so far whenever it
// reads them, so pre-posting 4n+16 buffers on every rank, or re-posting one
// per message, costs the event loop nothing per buffer. The batch records
// the n calls' spans itself.
func (pt *Port) ProvideReceiveBuffers(p *host.Process, n int) error {
	if n <= 0 {
		return nil
	}
	if !pt.open {
		return fmt.Errorf("gm: provide buffer on closed port %d", pt.num)
	}
	prm := p.Params()
	first := p.Now() + prm.ProvideBufferCost + prm.DoorbellLatency
	if err := pt.mcp.ScheduleCredits(pt.num, mcp.ReceiveToken, n, first, prm.ProvideBufferCost); err != nil {
		return err
	}
	pt.recvBufs += n
	p.RecordCalls(n, prm.ProvideBufferCost, phase.HostRecv, "provide_recv_buf")
	p.Proc().Advance(sim.Time(n) * prm.ProvideBufferCost)
	return nil
}

// ProvideBarrierBuffer posts one barrier completion buffer — the paper's
// gm_provide_barrier_buffer, called before initiating a barrier.
func (pt *Port) ProvideBarrierBuffer(p *host.Process) error {
	return pt.provide(p, &pt.slots[barrierSlot])
}

// ProvideCollectiveBuffer posts one collective completion buffer, the
// collective's gm_provide_barrier_buffer.
func (pt *Port) ProvideCollectiveBuffer(p *host.Process) error {
	return pt.provide(p, &pt.slots[collSlot])
}

// provide posts one completion buffer to slot s: a one-credit run the NIC
// sees one DoorbellLatency after the call returns, as a receive buffer.
func (pt *Port) provide(p *host.Process, s *slot) error {
	if !pt.open {
		return fmt.Errorf("gm: provide %s buffer on closed port %d", s.fam.noun, pt.num)
	}
	prm := p.Params()
	p.ComputePhase(prm.ProvideBufferCost, phase.HostPost, s.fam.provideLabel)
	if err := pt.mcp.ScheduleCredits(pt.num, s.fam.buffer, 1, p.Now()+prm.DoorbellLatency, 0); err != nil {
		return err
	}
	s.bufs++
	return nil
}

// BarrierActive reports whether a barrier this port posted has yet to have
// its completion event received: until then the NIC owns the posted token.
func (pt *Port) BarrierActive() bool { return pt.slots[barrierSlot].active }

// BarrierSend initiates a NIC-based barrier — the paper's
// gm_barrier_send_with_callback. The host must have computed the peer list
// (PE) or tree neighborhood (GB) and provided a barrier buffer. Completion
// is reported by a BarrierDoneEvent.
func (pt *Port) BarrierSend(p *host.Process, tok *mcp.BarrierToken) error {
	return pt.post(p, &pt.slots[barrierSlot], tok, &tok.SrcPort, nil)
}

// CollectiveSend is BarrierSend for a collective; its CollDoneEvent also
// carries the result. A token the firmware would refuse is refused here,
// before any host-side state moves: past the doorbell no one is left to
// return the error to.
func (pt *Port) CollectiveSend(p *host.Process, tok *mcp.CollToken) error {
	return pt.post(p, &pt.slots[collSlot], tok, &tok.SrcPort, tok.Validate())
}

// post hands tok, whose SrcPort field srcPort is, to slot s; invalid is what
// is wrong with the token itself, refused after the slot's own checks.
func (pt *Port) post(p *host.Process, s *slot, tok any, srcPort *int, invalid error) error {
	switch {
	case !pt.open:
		return fmt.Errorf("gm: %s on closed port %d", s.fam.noun, pt.num)
	case s.active:
		return fmt.Errorf("gm: port %d %s already in flight", pt.num, s.fam.noun)
	case s.bufs == 0:
		return fmt.Errorf("gm: port %d has no %s buffer", pt.num, s.fam.noun)
	case invalid != nil:
		return invalid
	}
	*srcPort = pt.num
	s.active = true
	s.bufs--
	p.ComputePhase(p.Params().BarrierPostCost, phase.HostPost, s.fam.postLabel)
	s.posted = tok
	pt.sim.AtCall(p.Now()+p.Params().DoorbellLatency, tokRung, s)
	return nil
}

// tokRung is a posted token's doorbell, its argument the slot: the NIC takes
// the token.
func tokRung(a any) {
	s := a.(*slot)
	pt := s.pt
	if pt.unwritten() {
		return
	}
	tok := s.posted
	s.posted = nil
	if err := s.fam.postToken(pt.mcp, tok); err != nil {
		panic(fmt.Sprintf("gm: NIC rejected %s token: %v", s.fam.noun, err))
	}
}

// A Waiter is the caller of a blocking receive (ReceiveFor): Ends reports
// whether an event of kind k from src ends the wait, and File takes every
// event that does not, in arrival order, once the port has charged for it.
// File may run from the event loop while the process is parked, so it only
// records the event for the process to read; ev is valid for the call, so
// File copies what it keeps.
type Waiter interface {
	Ends(k mcp.HostEventKind, src mcp.Endpoint) bool
	File(ev *mcp.HostEvent)
}

// ReceiveFor blocks until the port receives an event that ends w's wait and
// returns it (gm_receive / gm_blocking_receive); every event before it is
// received and handed to w.File. Each costs the process event-detection
// cost plus a per-kind processing cost (the paper's HRecv for data and
// barrier-completion events). p must be the port's owner. The event returned
// is the port's queue entry: it is valid until p next receives from the port
// or parks, so the caller copies what it keeps beyond that.
func (pt *Port) ReceiveFor(p *host.Process, w Waiter) *mcp.HostEvent {
	for {
		// The lead is kept: an event queued at loop time T is the head the
		// process would find at T + lead, and an empty queue is looked at
		// again after every arrival.
		for pt.PendingEvents() == 0 {
			pt.waiter = w
			p.Proc().Await(&pt.sig)
			pt.waiter = nil
		}
		ev := pt.pop()
		pt.charge(p, ev.Kind)
		if w.Ends(ev.Kind, ev.Src) {
			return ev
		}
		w.File(ev)
	}
}

// TryReceive polls once for an event (non-blocking gm_receive). It charges
// one poll cost; if an event is present it is consumed and returned, valid as
// ReceiveFor's is. Fuzzy-barrier loops interleave TryReceive with
// computation.
func (pt *Port) TryReceive(p *host.Process) (*mcp.HostEvent, bool) {
	p.Proc().Sync() // an empty queue now says nothing about the process's own instant
	if pt.PendingEvents() == 0 {
		p.ComputePhase(p.Params().PollCost, phase.HostRecv, "poll")
		return nil, false
	}
	ev := pt.pop()
	p.ComputePhase(p.Params().PollCost, eventPhase(ev.Kind), "poll")
	pt.charge(p, ev.Kind)
	return ev, true
}

// pop removes the head of the event queue and returns it in place: the
// entry stays as it is until the next event is queued, which the event loop
// does only while the owner is parked.
func (pt *Port) pop() *mcp.HostEvent {
	ev := &pt.events[pt.evHead]
	pt.evHead++
	if pt.evHead == len(pt.events) {
		pt.events = pt.events[:0]
		pt.evHead = 0
	}
	return ev
}

// charge is what receiving an event of kind k costs p and does to the
// host-side mirrors: the detection cost, attributed by what is being
// detected (a barrier completion's uncached event-queue reads land in
// HostDone, not HostRecv; the charge itself is identical either way), then
// the per-kind processing cost.
func (pt *Port) charge(p *host.Process, k mcp.HostEventKind) {
	p.ComputePhase(p.Params().RecvDetect, eventPhase(k), "detect")
	switch k {
	case mcp.RecvEvent:
		pt.recvBufs--
		p.ComputePhase(p.Params().EffectiveRecvProcess(), phase.HostRecv, "recv_process")
	case mcp.SentEvent:
		pt.sendsInFlight--
		p.ComputePhase(p.Params().SentEvtCost, phase.HostSend, "sent_evt")
	default: // an operation slot's completion
		for i := range pt.slots {
			if s := &pt.slots[i]; s.fam.done == k {
				s.active = false
				p.ComputePhase(p.Params().EffectiveRecvProcess(), phase.HostDone, s.fam.doneLabel)
			}
		}
	}
}
