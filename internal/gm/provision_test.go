package gm_test

import (
	"slices"
	"testing"

	"gmsim/internal/cluster"
	"gmsim/internal/gm"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/phase"
	"gmsim/internal/sim"
)

// Differential tests for batched receive-buffer provisioning: two identical
// clusters, one posting its buffers with ProvideReceiveBuffers, one with the
// loop of ProvideReceiveBuffer calls it stands for. Nothing that can look —
// the process clock, the NIC's token count at every nanosecond, a sender
// racing the provisioning, the recorded spans — may tell them apart.

// tokenStep is one change of the NIC's receive-token count.
type tokenStep struct {
	at     sim.Time
	tokens int
}

// provisioned is what one run leaves behind.
type provisioned struct {
	clock      sim.Time    // rank 0's clock when provisioning returned
	steps      []tokenStep // every change of rank 0's RecvTokens, to the nanosecond
	recvAt     sim.Time    // when rank 0 had the racing message in hand
	stats      mcp.Stats   // rank 0's firmware counters
	spans      []phase.Span
	executed   int64
	maxPending int
}

// provision runs post as rank 0's provisioning on a fresh two-node cluster
// while rank 1 sends rank 0 one message as early as it can. The NIC's token
// count is sampled every nanosecond until watch.
func provision(t *testing.T, hp host.Params, record bool, watch sim.Time,
	post func(p *host.Process, port *gm.Port) error) provisioned {
	t.Helper()
	cfg := cluster.DefaultConfig(2)
	cfg.Host = hp
	cl := cluster.New(cfg)
	defer cl.Close()
	var rec *phase.Recorder
	if record {
		rec = phase.NewRecorder()
		cl.SetPhaseRecorder(rec)
	}
	var out provisioned
	s := cl.Sim()
	last := 0
	var sample func()
	sample = func() {
		if n := cl.MCP(0).Port(2).RecvTokens(); n != last {
			out.steps = append(out.steps, tokenStep{s.Now(), n})
			last = n
		}
		out.maxPending = max(out.maxPending, s.Pending())
		if s.Now() < watch {
			s.After(1, sample)
		}
	}
	s.After(0, sample)
	cl.Spawn(0, 0, func(p *host.Process) {
		port, err := gm.Open(p, cl.MCP(0), 2)
		if err != nil {
			t.Error(err)
			return
		}
		if err := post(p, port); err != nil {
			t.Error(err)
			return
		}
		out.clock = p.Now()
		if ev := port.Receive(p); ev.Kind != mcp.RecvEvent {
			t.Errorf("rank 0 received %v, want the message", ev.Kind)
		}
		out.recvAt = p.Now()
	})
	cl.Spawn(1, 1, func(p *host.Process) {
		port, err := gm.Open(p, cl.MCP(1), 2)
		if err != nil {
			t.Error(err)
			return
		}
		if err := port.Send(p, mcp.Endpoint{Node: 0, Port: 2}, []byte("racing"), nil); err != nil {
			t.Error(err)
			return
		}
		port.Receive(p) // the send's completion
	})
	cl.Run()
	out.stats = cl.MCP(0).Stats()
	out.spans = rec.Spans()
	out.executed = s.Executed()
	return out
}

func loopOf(n int) func(*host.Process, *gm.Port) error {
	return func(p *host.Process, port *gm.Port) error {
		for i := 0; i < n; i++ {
			if err := port.ProvideReceiveBuffer(p); err != nil {
				return err
			}
		}
		return nil
	}
}

func batchOf(ns ...int) func(*host.Process, *gm.Port) error {
	return func(p *host.Process, port *gm.Port) error {
		for _, n := range ns {
			if err := port.ProvideReceiveBuffers(p, n); err != nil {
				return err
			}
		}
		return nil
	}
}

// sameProvisioning compares everything but the event counts.
func sameProvisioning(t *testing.T, batch, loop provisioned) {
	t.Helper()
	if batch.clock != loop.clock {
		t.Errorf("process clock after provisioning: batch %v, loop %v", batch.clock, loop.clock)
	}
	if !slices.Equal(batch.steps, loop.steps) {
		t.Errorf("NIC token count over time differs:\n batch %v\n loop  %v", batch.steps, loop.steps)
	}
	if batch.recvAt != loop.recvAt {
		t.Errorf("racing message in hand: batch %v, loop %v", batch.recvAt, loop.recvAt)
	}
	if batch.stats != loop.stats {
		t.Errorf("firmware counters: batch %+v, loop %+v", batch.stats, loop.stats)
	}
	if !slices.Equal(batch.spans, loop.spans) {
		t.Errorf("recorded spans differ: batch %d spans, loop %d", len(batch.spans), len(loop.spans))
	}
}

func TestProvideReceiveBuffersMatchesLoop(t *testing.T) {
	const n = 80 // 4*16+16, the harness's rule at paper scale
	hp := host.DefaultParams()
	watch := sim.Time(n+10) * hp.ProvideBufferCost
	batch := provision(t, hp, false, watch, batchOf(n))
	loop := provision(t, hp, false, watch, loopOf(n))
	sameProvisioning(t, batch, loop)

	// The NIC saw token k one doorbell after call k+1 would have returned,
	// and the racing message took one of them mid-provisioning.
	open := hp.DoorbellLatency
	if want := open + n*hp.ProvideBufferCost; batch.clock != want {
		t.Errorf("provisioning returned at %v, want %v", batch.clock, want)
	}
	ups, downs := 0, 0
	for i, st := range batch.steps {
		prev := 0
		if i > 0 {
			prev = batch.steps[i-1].tokens
		}
		if st.tokens == prev+1 {
			if want := open + sim.Time(ups+1)*hp.ProvideBufferCost + hp.DoorbellLatency; st.at != want {
				t.Errorf("token %d reached the NIC at %v, want %v", ups, st.at, want)
			}
			ups++
		} else {
			downs++
			if st.tokens != prev-1 || st.at >= batch.clock || ups == 0 {
				t.Errorf("step %v after %d tokens: want one token consumed while provisioning", st, ups)
			}
		}
	}
	if ups != n || downs != 1 {
		t.Errorf("%d tokens posted and %d consumed, want %d and 1", ups, downs, n)
	}
	if batch.stats.NoRecvToken != 0 || batch.stats.DataDelivered != 1 {
		t.Errorf("racing message: %+v", batch.stats)
	}

	// Which path ran shows in the pending population, not in the event count
	// (a call's charge is a lead on the process's clock, so the loop sleeps no
	// more than the batch does): the loop has scheduled all n doorbells before
	// the first rings, the batch keeps one, which schedules the next.
	if batch.maxPending >= 8 || loop.maxPending < n {
		t.Errorf("batch had %d events pending at once, the loop %d: want a handful and at least %d",
			batch.maxPending, loop.maxPending, n)
	}
}

// TestProvideReceiveBuffersRecordsEveryCall: with a phase recorder attached
// the batch is still the batch, and it records the spans of the calls it
// stands for.
func TestProvideReceiveBuffersRecordsEveryCall(t *testing.T) {
	hp := host.DefaultParams()
	watch := 100 * hp.ProvideBufferCost
	batch := provision(t, hp, true, watch, batchOf(80))
	loop := provision(t, hp, true, watch, loopOf(80))
	sameProvisioning(t, batch, loop)
	provide := 0
	for _, sp := range batch.spans {
		if sp.Label == "provide_recv_buf" {
			provide++
		}
	}
	if provide != 80 || batch.maxPending >= 8 {
		t.Errorf("recorder on: %d provisioning spans (want 80), %d events pending at once (want a handful)",
			provide, batch.maxPending)
	}
}

// TestProvideReceiveBuffersFallsBackToLoop: a second batch cannot share the
// port's one doorbell event with a first that is still ringing, and free
// calls ring all their doorbells at one instant. Each is the loop itself.
func TestProvideReceiveBuffersFallsBackToLoop(t *testing.T) {
	hp := host.DefaultParams()
	watch := 100 * hp.ProvideBufferCost

	batch := provision(t, hp, false, watch, batchOf(40, 40))
	loop := provision(t, hp, false, watch, loopOf(80))
	sameProvisioning(t, batch, loop)
	if batch.maxPending < 40 || batch.maxPending >= 48 || loop.maxPending < 80 {
		t.Errorf("two batches back to back had %d events pending at once, the loop %d: want the second batch's 40 doorbells, not the first's",
			batch.maxPending, loop.maxPending)
	}

	hp.ProvideBufferCost = 0
	batch = provision(t, hp, false, watch, batchOf(80))
	loop = provision(t, hp, false, watch, loopOf(80))
	sameProvisioning(t, batch, loop)
	if batch.executed != loop.executed {
		t.Errorf("free calls: %d events against the loop's %d", batch.executed, loop.executed)
	}
}

// TestProvideReceiveBuffersOnePendingEvent: however many buffers, a batch
// keeps one doorbell event and one sleep pending — what it is for — and a
// port that is closed
// or asked for nothing behaves as the loop does.
func TestProvideReceiveBuffersOnePendingEvent(t *testing.T) {
	const n = 4096
	cl := cluster.New(cluster.DefaultConfig(1))
	defer cl.Close()
	s := cl.Sim()
	maxPending := 0
	cl.Spawn(0, 0, func(p *host.Process) {
		port, err := gm.Open(p, cl.MCP(0), 2)
		if err != nil {
			t.Error(err)
			return
		}
		var watch func()
		watch = func() {
			maxPending = max(maxPending, s.Pending())
			if !p.Proc().Finished() {
				s.After(p.Params().ProvideBufferCost/2, watch)
			}
		}
		s.After(0, watch)
		if err := port.ProvideReceiveBuffers(p, 0); err != nil {
			t.Errorf("zero buffers: %v", err)
		}
		if err := port.ProvideReceiveBuffers(p, n); err != nil {
			t.Error(err)
		}
		port.Close()
		if err := port.ProvideReceiveBuffers(p, n); err == nil {
			t.Error("batch on a closed port did not fail")
		}
		if err := port.ProvideReceiveBuffers(p, 1); err == nil {
			t.Error("single buffer on a closed port did not fail")
		}
	})
	cl.Run()
	if maxPending > 3 { // the watcher, the sleep, the doorbell
		t.Errorf("%d events pending at once while posting %d buffers", maxPending, n)
	}
	if got := s.Executed(); got > 3*n+16 {
		// n doorbells, the watcher's 2n ticks and a handful of others: no
		// second event per buffer.
		t.Errorf("%d events for %d buffers", got, n)
	}
}
