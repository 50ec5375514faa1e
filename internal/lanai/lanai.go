// Package lanai models the programmable Myrinet NIC ("LANai") hardware:
// a slow firmware processor that serializes all control work, and two DMA
// engines that move data across the host PCI bus concurrently with the
// processor.
//
// The paper's two cards are provided as models: LANai 4.3 with a 33 MHz
// processor and LANai 7.2 with a 66 MHz processor. Firmware costs are
// expressed in processor cycles (see package mcp), so moving firmware from
// a 4.3 to a 7.2 card halves its execution time — exactly the experiment
// the paper runs in Figure 5(c)/(d).
package lanai

import (
	"fmt"

	"gmsim/internal/phase"
	"gmsim/internal/sim"
)

// Model describes a LANai NIC generation.
type Model struct {
	// Name is the card name as the paper gives it, e.g. "LANai 4.3".
	Name string
	// ClockMHz is the firmware processor clock.
	ClockMHz float64
	// SDMA and RDMA describe the two DMA engines (host memory -> NIC
	// transmit buffers, and NIC receive buffers -> host memory).
	SDMA, RDMA DMAParams
}

// DMAParams describes one DMA engine's path across the PCI bus.
type DMAParams struct {
	// Startup is the fixed per-transfer cost (descriptor fetch, bus
	// acquisition).
	Startup sim.Time
	// BandwidthMBps is the sustained transfer rate. 32-bit 33 MHz PCI of
	// the paper's era peaks at 132 MB/s.
	BandwidthMBps float64
}

// transferTime returns startup plus the time to move n bytes.
func (d DMAParams) transferTime(n int) sim.Time {
	t := d.Startup
	if n > 0 {
		t += sim.Time(float64(n)/d.BandwidthMBps*1000 + 0.5)
	}
	return t
}

// LANai43 returns the model for the paper's 33 MHz LANai 4.3 card.
func LANai43() Model {
	return Model{
		Name:     "LANai 4.3",
		ClockMHz: 33,
		SDMA:     DMAParams{Startup: 1500 * sim.Nanosecond, BandwidthMBps: 132},
		RDMA:     DMAParams{Startup: 1500 * sim.Nanosecond, BandwidthMBps: 132},
	}
}

// LANai72 returns the model for the paper's 66 MHz LANai 7.2 card.
// The DMA path (PCI) is unchanged; only the processor is faster.
func LANai72() Model {
	return Model{
		Name:     "LANai 7.2",
		ClockMHz: 66,
		SDMA:     DMAParams{Startup: 1500 * sim.Nanosecond, BandwidthMBps: 132},
		RDMA:     DMAParams{Startup: 1500 * sim.Nanosecond, BandwidthMBps: 132},
	}
}

// Cycles converts a firmware cycle count to simulated time on this model.
func (m Model) Cycles(n int64) sim.Time {
	if n <= 0 {
		return 0
	}
	return sim.Time(float64(n)/m.ClockMHz*1000 + 0.5)
}

func (m Model) String() string { return fmt.Sprintf("%s (%.0f MHz)", m.Name, m.ClockMHz) }

// NIC is one card: a serializing firmware CPU plus two DMA engines.
// The firmware itself lives in package mcp; it drives the NIC through
// ExecTagged, ExecTaggedCall and ExecDMA, which also books a transfer on
// one of the engines.
type NIC struct {
	sim   *sim.Simulator
	model Model

	cpuFree  sim.Time
	cpuBusy  sim.Time // accumulated busy time
	cpuTasks int64

	stalls int64

	// dead marks a fail-stop crashed card: the firmware processor halts and
	// no further tasks, stalls or DMA transfers are scheduled. Work whose
	// completion event was already scheduled still fires (it represents
	// cycles spent before the crash), but can start nothing new. killedAt is
	// the crash instant: a transfer booked by a task that ends at or after
	// it never starts (Landed).
	dead     bool
	killedAt sim.Time

	// rec, when attached, receives one NICProc span per firmware task.
	// A nil recorder costs one check per task (the zero-cost contract).
	rec  *phase.Recorder
	node int32

	sdma *DMAEngine
	rdma *DMAEngine
}

// NewNIC creates a card of the given model on the simulator.
func NewNIC(s *sim.Simulator, model Model) *NIC {
	return &NIC{
		sim:   s,
		model: model,
		sdma:  &DMAEngine{sim: s, params: model.SDMA, track: phase.TrackSDMA},
		rdma:  &DMAEngine{sim: s, params: model.RDMA, track: phase.TrackRDMA},
	}
}

// Sim returns the simulator.
func (n *NIC) Sim() *sim.Simulator { return n.sim }

// Model returns the card model.
func (n *NIC) Model() Model { return n.model }

// SetPhaseRecorder attaches a span recorder and tells the card which node
// it sits in. Spans cover firmware tasks, stalls and DMA transfers; a nil
// recorder detaches.
func (n *NIC) SetPhaseRecorder(r *phase.Recorder, node int32) {
	n.rec = r
	n.node = node
	n.sdma.rec, n.sdma.node, n.sdma.track, n.sdma.label = r, node, phase.TrackSDMA, r.Label(phase.TrackSDMA.String())
	n.rdma.rec, n.rdma.node, n.rdma.track, n.rdma.label = r, node, phase.TrackRDMA, r.Label(phase.TrackRDMA.String())
}

// ExecDMA charges cycles on the firmware processor, as ExecTaggedCall does,
// for a task that starts an n-byte transfer on engine d as it ends, and
// books the transfer there and then: it starts when the task ends or when d
// frees up, whichever is later. It returns the instant the task ends (due)
// and the instant the transfer completes (done); the caller schedules the
// transfer's completion at done and asks Landed there whether it ran. On a
// dead card it charges and books nothing and returns ok false.
//
// Booking at the charge is booking at the task's end: only firmware tasks
// start transfers, one card's tasks end in the order they are charged, so
// each engine sees the same transfers in the same order from the same
// instants. The transfer's span is held until the loop reaches the task's
// end, where the recording would have taken it (phase.Recorder.Hold).
func (n *NIC) ExecDMA(cycles int64, label string, d *DMAEngine, bytes int) (due, done sim.Time, ok bool) {
	if n.dead {
		return 0, 0, false
	}
	due = n.charge(cycles, label)
	return due, d.book(due, bytes), true
}

// Landed reports, when a transfer ExecDMA booked on d for a task ending at
// due would complete, whether it ran: not if the card was killed at or
// before due, for the task that was to start it never ended. A transfer
// that never ran comes off d's counters. Call it once per booking.
func (n *NIC) Landed(d *DMAEngine, due sim.Time, bytes int) bool {
	if !n.dead || due < n.killedAt {
		return true
	}
	d.unbook(bytes)
	return false
}

// ExecTagged schedules fn to run after the firmware processor has spent the
// given number of cycles on it. The processor is a serial resource: if it is
// already committed to earlier tasks, this task queues behind them (FIFO).
// fn runs at the task's completion instant. This serialization is what
// makes a slow NIC processor visible in barrier latency (the paper's
// LANai 4.3 vs 7.2 comparison, and the 2-node GB anomaly).
//
// The label names the state-machine step ("bar.token", "recv.pe", ...) so
// traces read like the paper's Figure 2. The recorder keeps a label as an
// id into its table of names, so recording allocates nothing beyond the
// span itself. The span covers the task's queued execution window
// [start, start+dur], recorded at schedule time.
func (n *NIC) ExecTagged(cycles int64, label string, fn func()) {
	if n.dead {
		return
	}
	n.sim.At(n.charge(cycles, label), fn)
}

// ExecTaggedCall is ExecTagged for a prebuilt single-argument callback:
// fn and arg (a pointer to the record the task acts on) pass straight
// through to sim.AtCall, so charging a firmware task with a long-lived
// method value allocates nothing.
func (n *NIC) ExecTaggedCall(cycles int64, label string, fn func(any), arg any) {
	if n.dead {
		return
	}
	n.sim.AtCall(n.charge(cycles, label), fn, arg)
}

// charge books cycles on the serial firmware processor and returns the
// completion instant.
func (n *NIC) charge(cycles int64, label string) sim.Time {
	start := n.sim.Now()
	if n.cpuFree > start {
		start = n.cpuFree
	}
	dur := n.model.Cycles(cycles)
	n.cpuFree = start + dur
	n.cpuBusy += dur
	n.cpuTasks++
	if n.rec.On() {
		n.rec.Add(phase.Span{
			Start: start, End: n.cpuFree,
			Phase: phase.NICProc, Track: phase.TrackFW,
			Node: n.node, Peer: -1, Label: n.rec.Label(label),
		})
	}
	return n.cpuFree
}

// Stall freezes the firmware processor for d starting now (or when its
// current commitments finish, whichever is later): queued and future tasks
// wait it out. Models a firmware hang or a host-bus hiccup that starves
// the LANai — the fault layer's "NIC stall" fault.
func (n *NIC) Stall(d sim.Time) {
	if d <= 0 || n.dead {
		return
	}
	start := n.sim.Now()
	if n.cpuFree > start {
		start = n.cpuFree
	}
	n.cpuFree = start + d
	n.stalls++
	if n.rec.On() {
		n.rec.Add(phase.Span{
			Start: start, End: n.cpuFree,
			Phase: phase.NICProc, Track: phase.TrackFW,
			Node: n.node, Peer: -1, Label: n.rec.Label("stall"),
		})
	}
}

// Kill halts the card permanently (a fail-stop NIC crash): the firmware
// processor and both DMA engines stop accepting work, and the transfers
// booked by tasks that end from now on never start, so their held spans are
// dropped. Idempotent.
func (n *NIC) Kill() {
	if n.dead {
		return
	}
	n.dead = true
	n.killedAt = n.sim.Now()
	n.rec.DropHeld(n.node, n.killedAt)
}

// Dead reports whether the card has been killed.
func (n *NIC) Dead() bool { return n.dead }

// Stalls returns the number of injected processor stalls.
func (n *NIC) Stalls() int64 { return n.stalls }

// CPUBusyTime returns total firmware processor busy time so far.
func (n *NIC) CPUBusyTime() sim.Time { return n.cpuBusy }

// CPUTasks returns the number of firmware tasks executed or queued.
func (n *NIC) CPUTasks() int64 { return n.cpuTasks }

// SDMA returns the host-to-NIC DMA engine.
func (n *NIC) SDMA() *DMAEngine { return n.sdma }

// RDMA returns the NIC-to-host DMA engine.
func (n *NIC) RDMA() *DMAEngine { return n.rdma }

// DMAEngine is one direction of the PCI DMA path: a serial resource with a
// per-transfer startup cost and a sustained bandwidth.
type DMAEngine struct {
	sim       *sim.Simulator
	params    DMAParams
	free      sim.Time
	busy      sim.Time
	transfers int64
	bytes     int64

	rec   *phase.Recorder
	node  int32
	track phase.Track
	label phase.Label // the track's name, in rec's table
}

// book reserves the engine for an n-byte transfer that may start at at
// (when the firmware task that starts it ends) and returns the completion
// instant. Transfers on one engine serialize FIFO.
func (d *DMAEngine) book(at sim.Time, n int) sim.Time {
	start := max(at, d.free)
	dur := d.params.transferTime(n)
	d.free = start + dur
	d.busy += dur
	d.transfers++
	d.bytes += int64(n)
	if d.rec != nil {
		d.rec.Hold(phase.Span{
			Start: start, End: d.free,
			Phase: phase.DMA, Track: d.track,
			Node: d.node, Peer: -1, Label: d.label,
		}, d.sim.Reserve(at), d.sim)
	}
	return d.free
}

// unbook takes back the counts of a booked n-byte transfer that never ran.
func (d *DMAEngine) unbook(n int) {
	d.busy -= d.params.transferTime(n)
	d.transfers--
	d.bytes -= int64(n)
}

// Transfers returns the number of transfers booked, less those a card
// crash kept from starting (counted off as they would have completed, see
// Landed).
func (d *DMAEngine) Transfers() int64 { return d.transfers }

// Bytes returns the total bytes of the transfers Transfers counts.
func (d *DMAEngine) Bytes() int64 { return d.bytes }

// BusyTime returns the accumulated engine busy time of the transfers
// Transfers counts.
func (d *DMAEngine) BusyTime() sim.Time { return d.busy }
