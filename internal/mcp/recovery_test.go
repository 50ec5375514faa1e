package mcp

import (
	"reflect"
	"testing"

	"gmsim/internal/network"
	"gmsim/internal/sim"
)

// runBackoffSchedule sends one data frame into a black hole (every packet
// toward node 1 is dropped) and returns the retransmission intervals the
// sender's timer actually waited out, plus its final recovery stats.
func runBackoffSchedule(t *testing.T, maxRetries int) ([]sim.Time, RecoveryStats) {
	t.Helper()
	r := newRig(t, 2, func(i int, cfg *Config) {
		cfg.Params.MaxRetries = maxRetries
	})
	r.fab.SetFaultHook(dropIf(func(_ network.LinkID, p *network.Packet) bool { return p.Dst == 1 }))
	r.open(t, 0, 2)
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
	rec := r.mcps[0].Recovery(1)
	return rec.RTOHistory, rec
}

// TestRetransBackoffSchedule: the fired retransmission intervals follow
// the doubling-with-cap schedule (base 1ms doubling to the 16ms ceiling),
// each stretched by at most the configured jitter, and the whole schedule
// is bit-identical across runs.
func TestRetransBackoffSchedule(t *testing.T) {
	const rounds = 12
	hist, rec := runBackoffSchedule(t, rounds)
	if len(hist) != rounds+1 {
		t.Fatalf("timer fired %d times, want %d (MaxRetries rounds + the failing one)", len(hist), rounds+1)
	}
	pr := DefaultFirmwareParams()
	for k, got := range hist {
		base := pr.RetransTimeout
		for i := 0; i < k && base < pr.RetransBackoffMax; i++ {
			base *= 2
		}
		if base > pr.RetransBackoffMax {
			base = pr.RetransBackoffMax
		}
		hi := base + sim.Time(float64(base)*pr.RetransJitterPct/100) + 1
		if got < base || got > hi {
			t.Fatalf("fire %d: interval %v outside [%v, %v]", k, got, base, hi)
		}
	}
	// The cap must actually engage: late rounds sit at the ceiling.
	last := hist[len(hist)-1]
	if last < pr.RetransBackoffMax {
		t.Fatalf("final interval %v below the %v cap", last, pr.RetransBackoffMax)
	}
	if rec.Retransmissions == 0 || rec.Backoffs == 0 {
		t.Fatalf("recovery counters empty: %+v", rec)
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
	blackhole := true
	r := newRig(t, 2, func(i int, cfg *Config) {
		cfg.Params.MaxRetries = 100
	})
	r.fab.SetFaultHook(dropIf(func(_ network.LinkID, p *network.Packet) bool { return blackhole && p.Dst == 1 }))
	r.open(t, 0, 2)
	r.open(t, 1, 2)
	r.provide(t, 1, 2, 8)
	if err := r.mcps[0].PostSendToken(SendToken{
		SrcPort: 2, Dst: Endpoint{Node: 1, Port: 2}, Data: []byte("x"),
	}); err != nil {
		t.Fatalf("send: %v", err)
	}
	// Let a few rounds back off, then heal the link.
	r.s.At(sim.FromMicros(10000), func() { blackhole = false })
	r.s.Run()
	if got := len(r.recvEvents(1, 2)); got != 1 {
		t.Fatalf("delivered %d messages after healing, want 1", got)
	}
	rec := r.mcps[0].Recovery(1)
	if rec.RetryRounds != 0 {
		t.Fatalf("RetryRounds = %d after successful delivery, want 0", rec.RetryRounds)
	}
	if rec.Backoffs == 0 {
		t.Fatal("expected backoff rounds before the link healed")
	}
	// A fresh send must arm at the base interval again (backoff was reset).
	all := r.mcps[0].RecoveryAll()
	if len(all) != 1 || all[0].Peer != 1 {
		t.Fatalf("RecoveryAll = %+v", all)
	}
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
