package mcp

import (
	"reflect"
	"testing"

	"gmsim/internal/network"
	"gmsim/internal/sim"
)

// blackHole is a fault hook that drops every packet toward node 1 while on
// is set, and notes the instant each dropped one left: a dropped packet makes
// one hop only, so that is when its frame went out.
type blackHole struct {
	s    *sim.Simulator
	on   bool
	left []sim.Time
}

func (b *blackHole) OnHop(_ network.LinkID, p *network.Packet) network.Verdict {
	if !b.on || p.Dst != 1 {
		return network.Verdict{}
	}
	b.left = append(b.left, b.s.Now())
	return network.Verdict{Drop: true, Reason: "loss"}
}

// firedIntervals turns the departures of one data frame — the original
// send, then each retransmission — into the intervals the sender's timer
// waited out. The send arms the timer as the frame leaves; each fire queues
// the retransmission behind the firmware's Retrans+SendXmit cost and re-arms
// at once, so only the first gap carries that cost.
func firedIntervals(m *MCP, left []sim.Time) []sim.Time {
	pr := m.cfg.Params
	cost := m.NIC().Model().Cycles(pr.Retrans + pr.SendXmit)
	var out []sim.Time
	for k := 1; k < len(left); k++ {
		d := left[k] - left[k-1]
		if k == 1 {
			d -= cost
		}
		out = append(out, d)
	}
	return out
}

// checkInterval fails unless d is the k-th interval of the doubling-with-cap
// schedule, stretched by at most the configured jitter.
func checkInterval(t *testing.T, k int, d sim.Time) {
	t.Helper()
	pr := DefaultFirmwareParams()
	base := pr.RetransTimeout
	for i := 0; i < k && base < pr.RetransBackoffMax; i++ {
		base *= 2
	}
	if base > pr.RetransBackoffMax {
		base = pr.RetransBackoffMax
	}
	hi := base + sim.Time(float64(base)*pr.RetransJitterPct/100) + 1
	if d < base || d > hi {
		t.Fatalf("fire %d: interval %v outside [%v, %v]", k, d, base, hi)
	}
}

// runBackoffSchedule sends one data frame into a black hole and returns
// every interval the sender's timer waited out — the retransmissions' read
// off the wire, the last one's off the failed send event — plus the
// sender's counters.
func runBackoffSchedule(t *testing.T, maxRetries int) ([]sim.Time, Stats) {
	t.Helper()
	r := newRig(t, 2, func(cfg *Config) {
		cfg.Params.MaxRetries = maxRetries
	})
	hole := &blackHole{s: r.s, on: true}
	r.fab.SetFaultHook(hole)
	var failedAt sim.Time
	if err := r.mcps[0].OpenPort(2, hostFunc(func(ev *HostEvent) {
		if ev.Kind == SentEvent && ev.Failed {
			failedAt = r.s.Now()
		}
	})); err != nil {
		t.Fatalf("open: %v", err)
	}
	r.open(t, 1, 2)
	r.provide(t, 1, 2, 4)
	if err := r.mcps[0].PostSendToken(SendToken{
		SrcPort: 2,
		Dst:     Endpoint{Node: 1, Port: 2},
		Data:    []byte("doomed"),
	}); err != nil {
		t.Fatalf("send: %v", err)
	}
	r.s.Run()
	m := r.mcps[0]
	hist := firedIntervals(m, hole.left)
	// The failing fire retransmits nothing: it hands the token back failed,
	// SentEvtProc on the firmware and then an RDMA of the event record, the
	// only one this NIC makes. The fire before it sent its retransmission
	// the Retrans+SendXmit cost and one link latency ahead of the hook.
	if failedAt == 0 || m.NIC().RDMA().Transfers() != 1 || len(hole.left) < 2 {
		t.Fatalf("failed send event at %v after %d RDMA transfers and %d departures",
			failedAt, m.NIC().RDMA().Transfers(), len(hole.left))
	}
	pr := m.cfg.Params
	lastFire := hole.left[len(hole.left)-1] - network.DefaultLinkParams().Latency -
		m.NIC().Model().Cycles(pr.Retrans+pr.SendXmit)
	failFire := failedAt - m.NIC().Model().Cycles(pr.SentEvtProc) - m.NIC().RDMA().BusyTime()
	return append(hist, failFire-lastFire), m.Stats()
}

// TestRetransBackoffSchedule: the fired retransmission intervals follow
// the doubling-with-cap schedule (base 1ms doubling to the 16ms ceiling),
// each stretched by at most the configured jitter, and the whole schedule
// is bit-identical across runs.
func TestRetransBackoffSchedule(t *testing.T) {
	const rounds = 12
	hist, st := runBackoffSchedule(t, rounds)
	// MaxRetries rounds retransmit; the failing one after them does not.
	if st.TimerFires != rounds+1 || st.ConnFailures != 1 || st.Retransmissions != rounds {
		t.Fatalf("timer fired %d times, %d connection failures, %d retransmissions; want %d, 1, %d",
			st.TimerFires, st.ConnFailures, st.Retransmissions, rounds+1, rounds)
	}
	if len(hist) != rounds+1 {
		t.Fatalf("%d fired intervals, want %d (MaxRetries rounds + the failing one)", len(hist), rounds+1)
	}
	pr := DefaultFirmwareParams()
	var grew int64
	for k := 0; k <= rounds; k++ {
		if pr.RetransTimeout<<k < pr.RetransBackoffMax {
			grew++
		}
	}
	if st.Backoffs != grew {
		t.Fatalf("Backoffs = %d, want %d (every fire below the cap)", st.Backoffs, grew)
	}
	for k, got := range hist {
		checkInterval(t, k, got)
	}
	// The cap must actually engage: late rounds sit at the ceiling.
	if last := hist[len(hist)-1]; last < pr.RetransBackoffMax {
		t.Fatalf("final interval %v below the %v cap", last, pr.RetransBackoffMax)
	}

	// Determinism: the jittered schedule is a pure function of the seed.
	hist2, _ := runBackoffSchedule(t, rounds)
	if !reflect.DeepEqual(hist, hist2) {
		t.Fatalf("backoff schedule not deterministic:\n%v\n%v", hist, hist2)
	}
}

// TestBackoffResetsOnAckProgress: once the peer comes back and acks, the
// next loss restarts from the base interval.
func TestBackoffResetsOnAckProgress(t *testing.T) {
	r := newRig(t, 2, func(cfg *Config) {
		cfg.Params.MaxRetries = 100
	})
	hole := &blackHole{s: r.s, on: true}
	r.fab.SetFaultHook(hole)
	r.open(t, 0, 2)
	r.open(t, 1, 2)
	r.provide(t, 1, 2, 8)
	send := func(data string) {
		if err := r.mcps[0].PostSendToken(SendToken{
			SrcPort: 2, Dst: Endpoint{Node: 1, Port: 2}, Data: []byte(data),
		}); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	send("x")
	// Let a few rounds back off, then heal the link.
	r.s.At(sim.FromMicros(10000), func() { hole.on = false })
	r.s.RunUntil(sim.FromMicros(20000))
	if got := len(r.recvEvents(1, 2)); got != 1 {
		t.Fatalf("delivered %d messages after healing, want 1", got)
	}
	if st := r.mcps[0].Stats(); st.Backoffs == 0 || st.ConnFailures != 0 {
		t.Fatalf("Backoffs = %d, ConnFailures = %d; want backoff rounds before the link healed and no failure",
			st.Backoffs, st.ConnFailures)
	}

	// A second message into a fresh black hole: its first retransmission
	// comes at the base interval, not the backed-off one.
	hole.on, hole.left = true, nil
	send("y")
	r.s.RunUntil(sim.FromMicros(40000))
	hist := firedIntervals(r.mcps[0], hole.left)
	if len(hist) == 0 {
		t.Fatal("the second message was never retransmitted")
	}
	checkInterval(t, 0, hist[0])
}

// TestCorruptFrameDroppedAndNacked: a damaged data frame (truncation: the
// header survives) is discarded after the CRC check and nacked so the
// sender rewinds without waiting out its timer.
func TestCorruptFrameDroppedAndNacked(t *testing.T) {
	r := newRig(t, 2, nil)
	corruptNext := true
	r.fab.SetFaultHook(faultHookFunc(func(l network.LinkID, p *network.Packet) network.Verdict {
		if corruptNext {
			if f, ok := p.Payload.(*Frame); ok && f.Kind == DataFrame {
				corruptNext = false
				p.Corrupt = true
			}
		}
		return network.Verdict{}
	}))
	r.open(t, 0, 2)
	r.open(t, 1, 2)
	r.provide(t, 1, 2, 4)
	if err := r.mcps[0].PostSendToken(SendToken{
		SrcPort: 2, Dst: Endpoint{Node: 1, Port: 2}, Data: []byte("payload"),
	}); err != nil {
		t.Fatalf("send: %v", err)
	}
	r.s.Run()
	if got := len(r.recvEvents(1, 2)); got != 1 {
		t.Fatalf("delivered %d, want 1 (retransmission after corrupt drop)", got)
	}
	st1 := r.mcps[1].Stats()
	if st1.CorruptDrops != 1 {
		t.Fatalf("CorruptDrops = %d, want 1", st1.CorruptDrops)
	}
	if st1.NacksSent == 0 {
		t.Fatal("receiver never nacked the corrupt data frame")
	}
	st0 := r.mcps[0].Stats()
	if st0.Retransmissions == 0 {
		t.Fatal("sender never retransmitted")
	}
	// The nack-driven rewind must beat the 1ms timer by a wide margin.
	if now := r.s.Now(); now > sim.FromMicros(900) {
		t.Fatalf("recovery took %v: nack path did not engage before the timer", now)
	}
}

// faultHookFunc adapts a function to network.FaultHook.
type faultHookFunc func(network.LinkID, *network.Packet) network.Verdict

func (f faultHookFunc) OnHop(l network.LinkID, p *network.Packet) network.Verdict {
	return f(l, p)
}

// TestCorruptWireImageDropped: a mangled byte image fails DecodeFrame at
// the receiver and is dropped (no delivery, no crash), then recovered by
// the retransmission timer.
func TestCorruptWireImageDropped(t *testing.T) {
	r := newRig(t, 2, nil)
	mangleNext := true
	r.fab.SetFaultHook(faultHookFunc(func(l network.LinkID, p *network.Packet) network.Verdict {
		if mangleNext {
			if f, ok := p.Payload.(*Frame); ok && f.Kind == DataFrame {
				mangleNext = false
				img := f.EncodeWire()
				img[0] ^= 0xFF
				p.Payload = img
			}
		}
		return network.Verdict{}
	}))
	r.open(t, 0, 2)
	r.open(t, 1, 2)
	r.provide(t, 1, 2, 4)
	if err := r.mcps[0].PostSendToken(SendToken{
		SrcPort: 2, Dst: Endpoint{Node: 1, Port: 2}, Data: []byte("payload"),
	}); err != nil {
		t.Fatalf("send: %v", err)
	}
	r.s.Run()
	if got := len(r.recvEvents(1, 2)); got != 1 {
		t.Fatalf("delivered %d, want 1", got)
	}
	if st := r.mcps[1].Stats(); st.CorruptDrops != 1 {
		t.Fatalf("CorruptDrops = %d, want 1", st.CorruptDrops)
	}
}

// TestIntactWireImageDecodes: an undamaged byte image decodes and delivers
// exactly like the structured payload would have.
func TestIntactWireImageDecodes(t *testing.T) {
	r := newRig(t, 2, nil)
	r.fab.SetFaultHook(faultHookFunc(func(l network.LinkID, p *network.Packet) network.Verdict {
		if f, ok := p.Payload.(*Frame); ok {
			p.Payload = f.EncodeWire()
		}
		return network.Verdict{}
	}))
	r.open(t, 0, 2)
	r.open(t, 1, 2)
	r.provide(t, 1, 2, 4)
	if err := r.mcps[0].PostSendToken(SendToken{
		SrcPort: 2, Dst: Endpoint{Node: 1, Port: 2}, Data: []byte("bytes on the wire"),
	}); err != nil {
		t.Fatalf("send: %v", err)
	}
	r.s.Run()
	evs := r.recvEvents(1, 2)
	if len(evs) != 1 || string(evs[0].Data) != "bytes on the wire" {
		t.Fatalf("delivery through the codec path broken: %+v", evs)
	}
}
