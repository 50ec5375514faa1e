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
	recvAt     sim.Time    // when rank 0 had the last message in hand
	stats      mcp.Stats   // rank 0's firmware counters
	spans      []namedSpan
	executed   int64
	maxPending int
}

// provisionCase is one run of the harness: rank 0 posts its receive buffers
// on a fresh two-node cluster while rank 1 sends it messages.
type provisionCase struct {
	hp     host.Params
	record bool     // attach a phase recorder
	watch  sim.Time // rank 0's token count is sampled every nanosecond until then
	sends  int      // messages rank 1 sends back to back; 0 is one
	delay  sim.Time // rank 1 computes this long before its first send
	// reopenAt > 0: once its calls have returned, and not before reopenAt on
	// its clock, rank 0 closes port 2 and opens it again as a new program,
	// which posts with the same calls and receives what reaches it.
	reopenAt sim.Time
}

// provision runs post as rank 0's provisioning while rank 1 sends rank 0 one
// message as early as it can. The NIC's token count is sampled every
// nanosecond until watch.
func provision(t *testing.T, hp host.Params, record bool, watch sim.Time,
	post func(p *host.Process, port *gm.Port) error) provisioned {
	t.Helper()
	return provisionCase{hp: hp, record: record, watch: watch}.run(t, post)
}

func (pc provisionCase) run(t *testing.T, post func(p *host.Process, port *gm.Port) error) provisioned {
	t.Helper()
	cfg := cluster.DefaultConfig(2)
	cfg.Host = pc.hp
	cl := cluster.New(cfg)
	defer cl.Close()
	var rec *phase.Recorder
	if pc.record {
		rec = phase.NewRecorder()
		cl.SetPhaseRecorder(rec)
	}
	sends := max(pc.sends, 1)
	var out provisioned
	s := cl.Sim()
	last := 0
	var sample func()
	sample = func() {
		if n := cl.MCP(0).RecvTokens(2); n != last {
			out.steps = append(out.steps, tokenStep{s.Now(), n})
			last = n
		}
		out.maxPending = max(out.maxPending, s.Pending())
		if s.Now() < pc.watch {
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
		if pc.reopenAt > 0 {
			if p.Now() < pc.reopenAt {
				p.Compute(pc.reopenAt - p.Now())
			}
			if err := port.Close(); err != nil {
				t.Error(err)
				return
			}
			if port, err = gm.Open(p, cl.MCP(0), 2); err != nil {
				t.Error(err)
				return
			}
			if err := post(p, port); err != nil {
				t.Error(err)
				return
			}
		}
		for i := 0; i < sends; i++ { // after a reopen, what reaches the new program
			if ev := port.ReceiveFor(p, anyEvent{}); ev.Kind != mcp.RecvEvent {
				t.Errorf("rank 0 received %v, want a message", ev.Kind)
			}
			out.recvAt = p.Now()
		}
	})
	cl.Spawn(1, 1, func(p *host.Process) {
		port, err := gm.Open(p, cl.MCP(1), 2)
		if err != nil {
			t.Error(err)
			return
		}
		if pc.delay > 0 {
			p.Compute(pc.delay)
		}
		for i := 0; i < sends; i++ {
			if err := port.Send(p, mcp.Endpoint{Node: 0, Port: 2}, []byte("racing"), nil); err != nil {
				t.Error(err)
				return
			}
		}
		for i := 0; i < sends; i++ {
			port.ReceiveFor(p, anyEvent{}) // the sends' completions
		}
	})
	if err := cl.Drain(); err != nil && pc.reopenAt == 0 {
		t.Error(err) // after a reopen, the old program may have had what rank 0 waits for
	}
	out.stats = cl.MCP(0).Stats()
	out.spans = named(rec)
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

	// Which path ran shows in the event loop: the loop has scheduled all n
	// doorbells before the first rings and runs every one, the batch
	// schedules none. Its one event of its own is the sleep that settles its
	// charge, which the loop's calls take as leads.
	if batch.maxPending >= 8 || loop.maxPending < n || loop.executed-batch.executed != n-1 {
		t.Errorf("batch had %d events pending at once and ran %d, the loop %d and %d: want a handful, at least %d, and %d doorbells more",
			batch.maxPending, batch.executed, loop.maxPending, loop.executed, n, n-1)
	}
}

// after runs post once rank 0 has computed for d: its calls, and every
// doorbell, move d later.
func after(d sim.Time, post func(*host.Process, *gm.Port) error) func(*host.Process, *gm.Port) error {
	return func(p *host.Process, port *gm.Port) error {
		p.Compute(d)
		return post(p, port)
	}
}

// upsAndDowns counts a run's token steps up and down.
func upsAndDowns(steps []tokenStep) (ups, downs int) {
	prev := 0
	for _, st := range steps {
		if st.tokens > prev {
			ups++
		} else {
			downs++
		}
		prev = st.tokens
	}
	return ups, downs
}

// TestProvideReceiveBuffersRacingFrameOnDoorbell: the racing message is
// handled at the very instant a doorbell rings. The NIC handles it at the
// same instant whatever rank 0's host does, so delaying rank 0's calls moves
// a doorbell onto it. Which of the two comes first is the event loop's order
// for one instant, the order the events were scheduled in, and the batch
// keeps the loop's. Onto the k-th doorbell, with the calls made long before
// the message's handling was scheduled: the doorbell first, so the message
// takes token k the instant it is posted, and the count steps up and down
// at once, which the sampler sees as no step at all. Onto the first, with
// the message's handling already scheduled when the calls are made: the
// message first, so it finds no token, is refused with a no-buffer nack and
// is resent on the sender's timer.
func TestProvideReceiveBuffersRacingFrameOnDoorbell(t *testing.T) {
	const n = 80
	hp := host.DefaultParams()
	watch := sim.Time(n+10) * hp.ProvideBufferCost
	ref := provision(t, hp, false, watch, batchOf(n))
	handled := sim.Time(-1)
	for i, st := range ref.steps {
		if i > 0 && st.tokens < ref.steps[i-1].tokens {
			handled = st.at
		}
	}
	first := hp.DoorbellLatency + hp.ProvideBufferCost + hp.DoorbellLatency
	if handled <= first {
		t.Fatalf("the racing message was handled at %v, before the first doorbell at %v", handled, first)
	}
	for _, tc := range []struct {
		later             sim.Time
		ups, downs, nacks int
	}{
		{(handled - first) % hp.ProvideBufferCost, n - 1, 0, 0},
		{handled - first, n, 0, 1}, // taken after the resend: every token stays posted until the sampler stops
	} {
		batch := provision(t, hp, false, watch+tc.later, after(tc.later, batchOf(n)))
		loop := provision(t, hp, false, watch+tc.later, after(tc.later, loopOf(n)))
		sameProvisioning(t, batch, loop)
		ups, downs := upsAndDowns(batch.steps)
		if ups != tc.ups || downs != tc.downs || int(batch.stats.NoRecvToken) != tc.nacks || batch.stats.DataDelivered != 1 {
			t.Errorf("calls %v later: %d steps up and %d down, %d no-buffer nacks, %d delivered; want %d, %d, %d and 1",
				tc.later, ups, downs, batch.stats.NoRecvToken, batch.stats.DataDelivered, tc.ups, tc.downs, tc.nacks)
		}
	}
}

// TestProvideReceiveBuffersTokensUsedUpMidBatch: calls fifty times dearer
// post tokens slower than rank 1's messages arrive, so a message finds the
// tokens posted so far used up, is refused with a no-buffer nack, and is
// resent on the sender's timer until one has been posted.
func TestProvideReceiveBuffersTokensUsedUpMidBatch(t *testing.T) {
	const n = 8
	hp := host.DefaultParams()
	hp.ProvideBufferCost *= 50
	pc := provisionCase{hp: hp, watch: sim.Time(n+4) * hp.ProvideBufferCost, sends: n}
	batch := pc.run(t, batchOf(n))
	loop := pc.run(t, loopOf(n))
	sameProvisioning(t, batch, loop)
	t.Logf("%d no-buffer nacks, last message in hand at %v", batch.stats.NoRecvToken, batch.recvAt)
	if batch.stats.NoRecvToken == 0 || batch.stats.DataDelivered != n {
		t.Errorf("%d no-buffer nacks, %d messages delivered: want the tokens used up mid-batch, and all %d delivered",
			batch.stats.NoRecvToken, batch.stats.DataDelivered, n)
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
		if sp.name == "provide_recv_buf" {
			provide++
		}
	}
	if provide != 80 || batch.maxPending >= 8 {
		t.Errorf("recorder on: %d provisioning spans (want 80), %d events pending at once (want a handful)",
			provide, batch.maxPending)
	}
}

// TestProvideReceiveBuffersFallsBackToLoop: the NIC keeps one receive-token
// schedule, so a batch made while it is still posting — the port's own
// previous batch, or another port's — is the loop itself. A batch of free
// calls is a schedule all due at one instant and rings no doorbell. Each
// matches the loop of calls it stands for.
func TestProvideReceiveBuffersFallsBackToLoop(t *testing.T) {
	hp := host.DefaultParams()
	watch := 100 * hp.ProvideBufferCost

	// Back to back: the second batch is made while the first's last doorbells
	// are still due. The loop rings 80 doorbells; the batches ring the
	// second's 40, and the first sleeps once for its charge.
	batch := provision(t, hp, false, watch, batchOf(40, 40))
	loop := provision(t, hp, false, watch, loopOf(80))
	sameProvisioning(t, batch, loop)
	if batch.maxPending < 40 || loop.executed-batch.executed != 40-1 {
		t.Errorf("two batches back to back: %d events pending at once, %d run against the loop's %d: want the second's 40 doorbells, and 39 fewer",
			batch.maxPending, batch.executed, loop.executed)
	}

	// Free calls: every doorbell rings at one instant.
	hp.ProvideBufferCost = 0
	batch = provision(t, hp, false, watch, batchOf(80))
	loop = provision(t, hp, false, watch, loopOf(80))
	sameProvisioning(t, batch, loop)
	if loop.executed-batch.executed != 80-1 {
		t.Errorf("free calls: %d events against the loop's %d, want 79 fewer", batch.executed, loop.executed)
	}

	// Port 3's batch is still posting when port 2's is made: the NIC keeps
	// one schedule, so port 2's batch rings a doorbell per buffer.
	hp = host.DefaultParams()
	both := func(post func(*host.Process, *gm.Port, int) error) (steps [2][]tokenStep, executed int64) {
		cl := cluster.New(cluster.DefaultConfig(1))
		defer cl.Close()
		s := cl.Sim()
		var last [2]int
		var sample func()
		sample = func() {
			for i, num := range []int{2, 3} {
				if n := cl.MCP(0).RecvTokens(num); n != last[i] {
					steps[i] = append(steps[i], tokenStep{s.Now(), n})
					last[i] = n
				}
			}
			if s.Now() < watch {
				s.After(1, sample)
			}
		}
		s.After(0, sample)
		cl.Spawn(0, 0, func(p *host.Process) {
			var ports []*gm.Port
			for _, num := range []int{3, 2} {
				port, err := gm.Open(p, cl.MCP(0), num)
				if err != nil {
					t.Error(err)
					return
				}
				ports = append(ports, port)
			}
			for _, port := range ports {
				if err := post(p, port, 40); err != nil {
					t.Error(err)
					return
				}
			}
		})
		cl.Run()
		return steps, s.Executed()
	}
	bSteps, bRun := both(func(p *host.Process, port *gm.Port, n int) error { return port.ProvideReceiveBuffers(p, n) })
	lSteps, lRun := both(func(p *host.Process, port *gm.Port, n int) error { return loopOf(n)(p, port) })
	if !slices.Equal(bSteps[0], lSteps[0]) || !slices.Equal(bSteps[1], lSteps[1]) {
		t.Errorf("two ports: NIC token counts differ:\n batch %v\n loop  %v", bSteps, lSteps)
	}
	if len(bSteps[0]) != 40 || len(bSteps[1]) != 40 || lRun-bRun != 40-1 {
		t.Errorf("two ports: %d and %d token steps, %d events against the loop's %d: want 40 each, and port 2's 40 doorbells rung",
			len(bSteps[0]), len(bSteps[1]), bRun, lRun)
	}
}

// TestProvideReceiveBuffersOnePendingEvent: a batch schedules no doorbell, so
// a provisioning-only run costs the event loop the same whatever the number
// of buffers, and the NIC holds them all once the last call's doorbell would
// have rung. A port that is closed or asked for nothing behaves as the loop
// does.
func TestProvideReceiveBuffersOnePendingEvent(t *testing.T) {
	run := func(n int) (executed int64, tokens int) {
		cl := cluster.New(cluster.DefaultConfig(1))
		defer cl.Close()
		cl.Spawn(0, 0, func(p *host.Process) {
			port, err := gm.Open(p, cl.MCP(0), 2)
			if err != nil {
				t.Error(err)
				return
			}
			if err := port.ProvideReceiveBuffers(p, 0); err != nil {
				t.Errorf("zero buffers: %v", err)
			}
			if err := port.ProvideReceiveBuffers(p, n); err != nil {
				t.Error(err)
			}
			p.Compute(p.Params().DoorbellLatency)
			tokens = cl.MCP(0).RecvTokens(2)
			port.Close()
			if err := port.ProvideReceiveBuffers(p, n); err == nil {
				t.Error("batch on a closed port did not fail")
			}
			if err := port.ProvideReceiveBuffers(p, 1); err == nil {
				t.Error("single buffer on a closed port did not fail")
			}
		})
		cl.Run()
		return cl.Sim().Executed(), tokens
	}
	small, smallTokens := run(80)
	large, largeTokens := run(4096)
	if small != large || smallTokens != 80 || largeTokens != 4096 {
		t.Errorf("provisioning 80 buffers ran %d events and left %d tokens, 4096 ran %d and left %d: want the same events, every token",
			small, smallTokens, large, largeTokens)
	}
}

// FuzzProvisioning holds the batch to the loop on twin clusters through the
// provision harness. The bytes choose the number of buffers and the cost of
// a call, how many messages rank 1 sends and how long it computes before the
// first, and whether and when rank 0's program closes port 2 for a new
// program to open.
func FuzzProvisioning(f *testing.F) {
	for _, seed := range [][]byte{
		{79, 4},                         // the paper-scale 80 buffers, one racing message
		{79, 0},                         // free calls
		{7, 200, 3},                     // 25 µs calls: messages outrun the tokens
		{39, 4, 1, 0x10, 0x27},          // two messages, 10 µs late
		{79, 4, 0, 0, 0, 0x50, 0xc3},    // closed and reopened at 50 µs, every token posted
		{15, 2, 3, 0xe8, 0x03, 1, 0},    // closed as the calls return, doorbells still due
		{15, 1, 2, 0, 0, 0xc8, 0xaf},    // reopened at 45 µs, between messages
		{95, 8, 2, 0x88, 0x13, 0, 0x7d}, // 96 dearer calls, the close once they return
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		n := 1 + at(0)%96
		hp := host.DefaultParams()
		hp.ProvideBufferCost = sim.Time(at(1)) * 125
		pc := provisionCase{
			hp:       hp,
			sends:    1 + at(2)%min(4, n),
			delay:    sim.Time(at(3) | at(4)<<8),
			reopenAt: sim.Time(at(5) | at(6)<<8),
		}
		// Sampled every nanosecond: to the end of the calls, a bounded while.
		pc.watch = min(pc.reopenAt+2*sim.Time(n)*hp.ProvideBufferCost+5*sim.Microsecond, 100*sim.Microsecond)
		sameProvisioning(t, pc.run(t, batchOf(n)), pc.run(t, loopOf(n)))
	})
}

// TestClosedProgramCreditsNoReceiveToken: a receive buffer is the program's
// that provided it. A program posts n buffers and closes port 2 as its last
// call returns, its doorbells still crossing the bus; a new program opens the
// port at once. Once every doorbell has rung the newcomer holds no token it
// did not provide, whether the old program posted one call at a time or in a
// batch.
func TestClosedProgramCreditsNoReceiveToken(t *testing.T) {
	for _, n := range []int{1, 2, 80} {
		for _, form := range []struct {
			name string
			post func(*host.Process, *gm.Port) error
		}{{"batch", batchOf(n)}, {"loop", loopOf(n)}} {
			cl := cluster.New(cluster.DefaultConfig(1))
			inherited, own := -1, -1
			cl.Spawn(0, 0, func(p *host.Process) {
				old, err := gm.Open(p, cl.MCP(0), 2)
				if err != nil {
					t.Error(err)
					return
				}
				if err := form.post(p, old); err != nil {
					t.Error(err)
					return
				}
				if err := old.Close(); err != nil {
					t.Error(err)
					return
				}
				next, err := gm.Open(p, cl.MCP(0), 2)
				if err != nil {
					t.Error(err)
					return
				}
				settle := 2 * (p.Params().ProvideBufferCost + p.Params().DoorbellLatency)
				p.Compute(settle) // every doorbell of the old program has rung
				inherited = cl.MCP(0).RecvTokens(2)
				if err := next.ProvideReceiveBuffer(p); err != nil {
					t.Error(err)
					return
				}
				p.Compute(settle)
				own = cl.MCP(0).RecvTokens(2)
			})
			cl.Run()
			cl.Close()
			if inherited != 0 || own != 1 {
				t.Errorf("%s of %d, then close and reopen: the new program holds %d tokens it never provided and %d after providing one; want 0 and 1",
					form.name, n, inherited, own)
			}
		}
	}
}
