package mcp

import (
	"testing"

	"gmsim/internal/phase"
	"gmsim/internal/sim"
)

// dmaSpans counts the recorder's loop spans on track tr.
func dmaSpans(rec *phase.Recorder, tr phase.Track) int {
	n := 0
	for _, c := range rec.Loop() {
		for _, s := range c {
			if s.Track == tr {
				n++
			}
		}
	}
	return n
}

// TestCrashStopsHostEventsItsTasksHadNotHandedOn: a fail-stop crash halts
// the firmware processor, so a host event whose firmware task ends at or
// after the crash never starts its RDMA transfer: it is not delivered,
// counted or recorded. One whose task ended before the crash had its
// transfer under way, and the transfer completes: the host gets it.
func TestCrashStopsHostEventsItsTasksHadNotHandedOn(t *testing.T) {
	r := newRig(t, 1, nil)
	m := r.mcps[0]
	rec := phase.NewRecorder()
	m.NIC().SetPhaseRecorder(rec, 0)
	r.open(t, 0, 0)

	// Three tasks queue on the processor back to back; the card dies the
	// instant the second ends. The crash is scheduled first, so at that
	// instant it runs before anything the tasks schedule.
	const cycles, bytes = 33, 64
	task := m.NIC().Model().Cycles(cycles)
	r.s.At(2*task, m.NIC().Kill)
	for i := 0; i < 3; i++ {
		ev := m.postHostEvent(m.Port(0), cycles, "rdma.proc", bytes)
		if ev == nil {
			t.Fatalf("event %d refused by a live card", i)
		}
		ev.Kind, ev.Data = RecvEvent, []byte{byte(i)}
	}
	r.s.Run()

	got := r.recvEvents(0, 0)
	if len(got) != 1 || got[0].Data[0] != 0 {
		t.Fatalf("delivered %+v, want only the event whose task ended before the crash", got)
	}
	if n := m.Stats().DataDelivered; n != 1 {
		t.Errorf("DataDelivered = %d, want 1", n)
	}
	rdma := m.NIC().RDMA()
	want := m.NIC().Model().RDMA
	if rdma.Transfers() != 1 || rdma.Bytes() != bytes {
		t.Errorf("RDMA counted %d transfers, %d bytes; want 1 and %d", rdma.Transfers(), rdma.Bytes(), bytes)
	}
	if one := want.Startup + sim.Time(float64(bytes)/want.BandwidthMBps*1000+0.5); rdma.BusyTime() != one {
		t.Errorf("RDMA busy %v, want one transfer's %v", rdma.BusyTime(), one)
	}
	if n := dmaSpans(rec, phase.TrackRDMA); n != 1 {
		t.Errorf("%d rdma spans recorded, want 1", n)
	}
	if n := dmaSpans(rec, phase.TrackFW); n != 3 {
		t.Errorf("%d firmware spans recorded, want the 3 tasks charged before the crash", n)
	}
}

// TestCrashStopsSendsItsPollsHadNotHandedOn is the SDMA twin: a send whose
// poll task ends at or after the crash never fetches its payload; one whose
// poll ended before it did.
func TestCrashStopsSendsItsPollsHadNotHandedOn(t *testing.T) {
	r := newRig(t, 2, nil)
	m := r.mcps[0]
	rec := phase.NewRecorder()
	m.NIC().SetPhaseRecorder(rec, 0)
	r.open(t, 0, 0)
	r.open(t, 1, 0)

	poll := m.NIC().Model().Cycles(m.cfg.Params.SDMAPoll)
	r.s.At(2*poll, m.NIC().Kill)
	for i := 0; i < 3; i++ {
		if err := m.PostSendToken(SendToken{SrcPort: 0, Dst: Endpoint{Node: 1}, Data: make([]byte, 100)}); err != nil {
			t.Fatal(err)
		}
	}
	r.s.Run()

	sdma := m.NIC().SDMA()
	if sdma.Transfers() != 1 || sdma.Bytes() != 100 {
		t.Errorf("SDMA counted %d transfers, %d bytes; want 1 and 100", sdma.Transfers(), sdma.Bytes())
	}
	if n := dmaSpans(rec, phase.TrackSDMA); n != 1 {
		t.Errorf("%d sdma spans recorded, want 1", n)
	}
}
