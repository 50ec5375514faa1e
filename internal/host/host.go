// Package host models the host processor side of a cluster node: the
// per-call CPU costs of the GM API, the PCI doorbell latency between host
// and NIC, and the process abstraction application code runs in.
//
// Host costs are what the paper's Section 2.2 decomposition calls Send
// (host part), HRecv, and the per-message overhead an additional layer such
// as MPI would add.
package host

import (
	"fmt"

	"gmsim/internal/network"
	"gmsim/internal/phase"
	"gmsim/internal/sim"
)

// Params are the host-side cost parameters. Defaults are calibrated for the
// paper's dual Pentium II 300 MHz hosts (DESIGN.md "Calibration").
type Params struct {
	// SendCost is the host CPU time to build a send token and write it to
	// the NIC queue (gm_send_with_callback's host part).
	SendCost sim.Time
	// BarrierPostCost is the host CPU time for
	// gm_barrier_send_with_callback: building the barrier token (the peer
	// list or tree neighborhood was computed beforehand).
	BarrierPostCost sim.Time
	// DoorbellLatency is the time for a host write to become visible to
	// the NIC across PCI.
	DoorbellLatency sim.Time
	// RecvDetect is the host CPU time for gm_receive to notice a newly
	// arrived event (uncached reads of the receive queue).
	RecvDetect sim.Time
	// RecvProcess is the host CPU time to process a receive or
	// barrier-completion event once detected (the paper's HRecv).
	RecvProcess sim.Time
	// SentEvtCost is the (cheaper) host CPU time to retire a
	// send-completion event.
	SentEvtCost sim.Time
	// ProvideBufferCost is the host CPU time to post a receive or barrier
	// buffer.
	ProvideBufferCost sim.Time
	// PollCost is one unsuccessful gm_receive poll (fuzzy-barrier loops).
	PollCost sim.Time
	// LayerOverhead models an additional messaging layer (e.g. MPI over
	// GM): it is added to SendCost and RecvProcess on every message. The
	// paper predicts the NIC-based barrier's factor of improvement grows
	// with this overhead (Equation 3); experiment E8 sweeps it.
	LayerOverhead sim.Time
}

// DefaultParams returns the calibrated host costs.
func DefaultParams() Params {
	return Params{
		SendCost:          sim.FromMicros(3.0),
		BarrierPostCost:   sim.FromMicros(3.0),
		DoorbellLatency:   sim.FromMicros(0.6),
		RecvDetect:        sim.FromMicros(1.5),
		RecvProcess:       sim.FromMicros(5.0),
		SentEvtCost:       sim.FromMicros(0.5),
		ProvideBufferCost: sim.FromMicros(0.5),
		PollCost:          sim.FromMicros(0.4),
	}
}

// EffectiveSendCost is SendCost plus the layer overhead.
func (p Params) EffectiveSendCost() sim.Time { return p.SendCost + p.LayerOverhead }

// EffectiveRecvProcess is RecvProcess plus the layer overhead.
func (p Params) EffectiveRecvProcess() sim.Time { return p.RecvProcess + p.LayerOverhead }

// Process is one application process running on a node's host processor:
// a simulation process, and the host cost parameters that the GM library
// charges on its behalf.
type Process struct {
	proc sim.Proc
	node network.NodeID
	rank int
	prm  Params

	// rec, when attached, receives one host-CPU span per phase-attributed
	// charge (the gm library charges through ComputePhase). nil = untraced.
	rec *phase.Recorder
}

// Start starts p, a process in memory the caller owns, on the given node and
// rank: s runs body(arg) as its program (sim.Simulator.Start). Cluster code
// normally starts processes (cluster.Cluster.Start, Spawn, SpawnAll). A panic
// message names the process by arg's String; a cell that embeds its Process
// has p's. An arg without one costs a small cell of its own, so that p
// names the process still.
func (p *Process) Start(s *sim.Simulator, node network.NodeID, rank int, prm Params, body func(any), arg any) {
	p.node, p.rank, p.prm = node, rank, prm
	if _, ok := arg.(fmt.Stringer); !ok {
		body, arg = runNamed, &named{p, body, arg}
	}
	s.Start(&p.proc, body, arg)
}

// named is the cell of a process whose arg cannot name it: the Process
// names it, and the body runs on the arg it was given.
type named struct {
	*Process
	body func(any)
	arg  any
}

// runNamed is a named cell's body.
func runNamed(a any) {
	n := a.(*named)
	n.body(n.arg)
}

// String names the process by its node and rank, as "node3/rank7".
func (p *Process) String() string { return fmt.Sprintf("node%d/rank%d", p.node, p.rank) }

// Proc returns the underlying simulation process.
func (p *Process) Proc() *sim.Proc { return &p.proc }

// Node returns the node this process runs on.
func (p *Process) Node() network.NodeID { return p.node }

// Rank returns the process's rank in its program.
func (p *Process) Rank() int { return p.rank }

// Params returns the host cost parameters.
func (p *Process) Params() Params { return p.prm }

// Now returns the current simulated time on the process's clock, which
// leads the event loop by the charges not yet settled (see sim.Proc).
func (p *Process) Now() sim.Time { return p.proc.Now() }

// SetPhaseRecorder attaches a span recorder for phase-attributed charges.
// nil detaches (the zero-cost path).
func (p *Process) SetPhaseRecorder(r *phase.Recorder) { p.rec = r }

// Compute consumes d of host CPU time (application work). It is a sleep: the
// process comes back level with the event loop, so application code may
// write what other processes read right after it.
func (p *Process) Compute(d sim.Time) { p.proc.Sleep(d) }

// ComputePhase consumes d of host CPU time — the charge of a library call —
// and, when a recorder is attached, attributes the interval to the given
// Section 2.2 phase. The charge is a lead on the process's clock, not a
// sleep (sim.Proc.Advance): the fixed host cost between two interactions
// with the NIC is waited out once, when the process next needs something
// that is not there yet. Recording is passive: the span is taken from the
// process's clock, and the recorder keeps it by the time it starts, not by
// when the call ran (phase.Recorder.AddHost).
func (p *Process) ComputePhase(d sim.Time, ph phase.Phase, label string) {
	if p.rec != nil {
		p.RecordCalls(1, d, ph, label)
	}
	p.proc.Advance(d)
}

// RecordCalls attributes n back-to-back calls of d each, the first starting
// now on the process's clock, to phase ph without charging them: the spans
// of n ComputePhase(d, ph, label) calls, for a caller that charges their sum
// itself. No-op without a recorder.
func (p *Process) RecordCalls(n int, d sim.Time, ph phase.Phase, label string) {
	now := p.proc.Now()
	p.rec.AddHost(phase.Span{
		Start: now, End: now + d,
		Phase: ph, Track: phase.TrackHost,
		Node: int32(p.node), Peer: -1, Label: p.rec.Label(label),
	}, n, p.proc.Sim().Now())
}

// Wait parks the process on a signal.
func (p *Process) Wait(sig *sim.Signal) { p.proc.Wait(sig) }
