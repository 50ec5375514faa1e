package gm_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"gmsim/internal/cluster"
	"gmsim/internal/fault"
	"gmsim/internal/gm"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/network"
	"gmsim/internal/phase"
	"gmsim/internal/sim"
)

// Differential tests for receive-buffer provisioning: two identical
// clusters, one posting its buffers with ProvideReceiveBuffers or the loop of
// ProvideReceiveBuffer calls — credit runs the NIC counts in closed form —
// the other with the form they stand for: a loop of calls that each ring a
// doorbell (ProvideReceiveBufferByDoorbell), or the loop of calls a batch
// stands for. Nothing that can look — the process clock, the NIC's token
// count at every nanosecond, a sender racing the provisioning, the recorded
// spans — may tell them apart.

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
			if err := port.Send(p, mcp.Endpoint{Node: 0, Port: 2}, []byte("racing")); err != nil {
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

// doorbellOf is loopOf with every buffer rung as a doorbell: the reference.
func doorbellOf(n int) func(*host.Process, *gm.Port) error {
	return func(p *host.Process, port *gm.Port) error {
		for i := 0; i < n; i++ {
			if err := port.ProvideReceiveBufferByDoorbell(p); err != nil {
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

// sameProvisioning compares everything but the event counts of a run and of
// the reference run it stands for.
func sameProvisioning(t *testing.T, got, ref provisioned) {
	t.Helper()
	if got.clock != ref.clock {
		t.Errorf("process clock after provisioning: %v, reference %v", got.clock, ref.clock)
	}
	if !slices.Equal(got.steps, ref.steps) {
		t.Errorf("NIC token count over time differs:\n got       %v\n reference %v", got.steps, ref.steps)
	}
	if got.recvAt != ref.recvAt {
		t.Errorf("racing message in hand: %v, reference %v", got.recvAt, ref.recvAt)
	}
	if got.stats != ref.stats {
		t.Errorf("firmware counters: %+v, reference %+v", got.stats, ref.stats)
	}
	if !slices.Equal(got.spans, ref.spans) {
		t.Errorf("recorded spans differ: %d spans, reference %d", len(got.spans), len(ref.spans))
	}
}

func TestProvideReceiveBuffersMatchesLoop(t *testing.T) {
	const n = 80 // 4*16+16, the harness's rule at paper scale
	hp := host.DefaultParams()
	watch := sim.Time(n+10) * hp.ProvideBufferCost
	batch := provision(t, hp, false, watch, batchOf(n))
	loop := provision(t, hp, false, watch, loopOf(n))
	bell := provision(t, hp, false, watch, doorbellOf(n))
	sameProvisioning(t, batch, loop)
	sameProvisioning(t, loop, bell)

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

	// Neither the batch nor the loop schedules an event of its own: the
	// batch hands the NIC one n-token run, the loop n one-token runs, and
	// their charges are leads. The doorbells' loop has scheduled all n before
	// the first rings, and runs every one.
	if batch.maxPending >= 8 || loop.maxPending >= 8 || loop.executed != batch.executed ||
		bell.maxPending < n || bell.executed-batch.executed != n {
		t.Errorf("events pending at once and run: batch %d and %d, loop %d and %d, doorbells %d and %d: want a handful and the same for the first two, at least %d and %d more for the doorbells",
			batch.maxPending, batch.executed, loop.maxPending, loop.executed, bell.maxPending, bell.executed, n, n)
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
		bell := provision(t, hp, false, watch+tc.later, after(tc.later, doorbellOf(n)))
		sameProvisioning(t, batch, loop)
		sameProvisioning(t, loop, bell)
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

// TestProvideReceiveBuffersOverlapEqualsDoorbell: the NIC keeps any number
// of credit runs at once, so a run handed over while an earlier one is still
// posting is counted beside it. Each case below matches the loop of doorbells
// it stands for, and schedules none of them: a batch made while the same
// port's previous batch still posts, a batch of free calls (every doorbell
// due at one instant), a batch made while another port's still posts, and a
// single re-post made while the previous one-token run still posts (the calls
// are leads, so each of the loop's runs is handed over before the one before
// it is due).
func TestProvideReceiveBuffersOverlapEqualsDoorbell(t *testing.T) {
	hp := host.DefaultParams()
	watch := 100 * hp.ProvideBufferCost
	for _, tc := range []struct {
		name string
		cost sim.Time
		post func(*host.Process, *gm.Port) error
	}{
		{"two batches back to back", hp.ProvideBufferCost, batchOf(40, 40)},
		{"free calls", 0, batchOf(80)},
		{"single re-posts", hp.ProvideBufferCost, loopOf(80)},
	} {
		hp := hp
		hp.ProvideBufferCost = tc.cost
		got := provision(t, hp, false, watch, tc.post)
		bell := provision(t, hp, false, watch, doorbellOf(80))
		sameProvisioning(t, got, bell)
		if got.maxPending >= 8 || bell.executed-got.executed != 80 {
			t.Errorf("%s: %d events pending at once, %d run against the doorbells' %d: want a handful, and 80 fewer",
				tc.name, got.maxPending, got.executed, bell.executed)
		}
	}

	// Port 3's batch is still posting when port 2's is made.
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
	dSteps, dRun := both(func(p *host.Process, port *gm.Port, n int) error { return doorbellOf(n)(p, port) })
	if !slices.Equal(bSteps[0], dSteps[0]) || !slices.Equal(bSteps[1], dSteps[1]) {
		t.Errorf("two ports: NIC token counts differ:\n batches   %v\n doorbells %v", bSteps, dSteps)
	}
	if len(bSteps[0]) != 40 || len(bSteps[1]) != 40 || dRun-bRun != 80 {
		t.Errorf("two ports: %d and %d token steps, %d events against the doorbells' %d: want 40 each, and 80 fewer",
			len(bSteps[0]), len(bSteps[1]), bRun, dRun)
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

// FuzzProvisioning holds the batch and the loop each to the loop of doorbells
// they stand for, on twin clusters through the provision harness. The bytes choose the number of buffers and the cost of
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
		bell := pc.run(t, doorbellOf(n))
		sameProvisioning(t, pc.run(t, batchOf(n)), bell)
		sameProvisioning(t, pc.run(t, loopOf(n)), bell)
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

// TestClosedProgramCreditsNoCompletionBuffer: a barrier or collective
// completion buffer, like a receive buffer, is the program's that provided
// it. A program provides one and closes port 2 before the buffer's doorbell
// latency has passed; a new program opens the port and, once that buffer
// would have reached the NIC, posts its token through mcp without providing a
// buffer. The NIC must refuse the token, and take the next one once the new
// program has provided a buffer of its own.
func TestClosedProgramCreditsNoCompletionBuffer(t *testing.T) {
	for _, fam := range []struct {
		name    string
		provide func(*gm.Port, *host.Process) error
		post    func(*mcp.MCP) error
	}{
		{"barrier", (*gm.Port).ProvideBarrierBuffer, func(m *mcp.MCP) error {
			return m.PostBarrierToken(&mcp.BarrierToken{Alg: mcp.PE, SrcPort: 2})
		}},
		{"collective", (*gm.Port).ProvideCollectiveBuffer, func(m *mcp.MCP) error {
			return m.PostCollectiveToken(&mcp.CollToken{Op: mcp.Broadcast, Root: true, SrcPort: 2})
		}},
	} {
		cl := cluster.New(cluster.DefaultConfig(1))
		var inherited, own error
		ran := false
		cl.Spawn(0, 0, func(p *host.Process) {
			old, err := gm.Open(p, cl.MCP(0), 2)
			if err != nil {
				t.Error(err)
				return
			}
			if err := fam.provide(old, p); err != nil {
				t.Error(err)
				return
			}
			if err := old.Close(); err != nil { // the buffer is still crossing the bus
				t.Error(err)
				return
			}
			next, err := gm.Open(p, cl.MCP(0), 2)
			if err != nil {
				t.Error(err)
				return
			}
			settle := 2 * (p.Params().ProvideBufferCost + p.Params().DoorbellLatency)
			p.Compute(settle) // the old program's buffer would have reached the NIC
			inherited = fam.post(cl.MCP(0))
			if err := fam.provide(next, p); err != nil {
				t.Error(err)
				return
			}
			p.Compute(settle)
			own = fam.post(cl.MCP(0))
			ran = true
		})
		cl.Run()
		cl.Close()
		if want := "no " + fam.name + " buffer"; !ran || inherited == nil || !strings.Contains(inherited.Error(), want) || own != nil {
			t.Errorf("%s buffer, then close and reopen: the new program's token without a buffer got %v (want %q), with its own buffer %v (want accepted)",
				fam.name, inherited, want, own)
		}
	}
}

// TestCrashSingleBufferScheduleEqualsDoorbell: a fail-stop crash leaves the
// same outcome whether each re-posted receive buffer is handed to the NIC as
// a one-token schedule or rings its doorbell — what every rank received and
// when it finished, every NIC's firmware counters, how and where the run
// ended. Four ranks pass messages round a ring, re-posting a buffer for each
// one they take; node 1 fail-stops at instants 7.3 µs apart across the run,
// so the crash lands between a call and its doorbell, on a doorbell, and
// while a rank waits. The ring then stalls: host-level traffic has no
// failure detection, and the run must deadlock at the same instant.
func TestCrashSingleBufferScheduleEqualsDoorbell(t *testing.T) {
	const n, iters = 4, 6
	type outcome struct {
		err      string
		recvd    [n]int
		finished [n]sim.Time
		stats    [n]mcp.Stats
		end      sim.Time
		executed int64
	}
	run := func(at sim.Time, doorbell bool) (out outcome) {
		cfg := cluster.DefaultConfig(n)
		if at > 0 {
			cfg.Fault = &fault.Plan{Crashes: []fault.Crash{{Node: 1, At: at}}}
		}
		cl := cluster.New(cfg)
		defer cl.Close()
		for node := 0; node < n; node++ {
			cl.Spawn(node, node, func(p *host.Process) {
				port, err := gm.Open(p, cl.MCP(node), 2)
				if err != nil {
					t.Error(err)
					return
				}
				if err := port.ProvideReceiveBuffers(p, 2); err != nil {
					t.Error(err)
					return
				}
				next := mcp.Endpoint{Node: network.NodeID((node + 1) % n), Port: 2}
				for i := 0; i < iters; i++ {
					if err := port.Send(p, next, []byte("ring")); err != nil {
						t.Error(err)
						return
					}
					for port.ReceiveFor(p, anyEvent{}).Kind != mcp.RecvEvent {
					}
					out.recvd[node]++
					provide := port.ProvideReceiveBuffer
					if doorbell {
						provide = port.ProvideReceiveBufferByDoorbell
					}
					if err := provide(p); err != nil {
						t.Error(err)
						return
					}
				}
				out.finished[node] = p.Now()
			})
		}
		if err := cl.Drain(); err != nil {
			out.err = err.Error()
		}
		for i := range out.stats {
			out.stats[i] = cl.MCP(i).Stats()
		}
		out.end = cl.Sim().Now()
		out.executed = cl.Sim().Executed()
		return out
	}
	clean, ref := run(0, false), run(0, true)
	if clean.err != "" || clean.recvd != [n]int{iters, iters, iters, iters} || clean.executed >= ref.executed {
		t.Fatalf("clean run: %q, received %v, %d events against the doorbells' %d: want every message and fewer events",
			clean.err, clean.recvd, clean.executed, ref.executed)
	}
	stalled, cells := 0, 0
	for at := sim.Time(0); at < clean.end; at += sim.FromMicros(7.3) {
		sched, bell := clean, ref
		if at > 0 {
			sched, bell = run(at, false), run(at, true)
		}
		bell.executed = sched.executed
		if sched != bell {
			t.Errorf("crash at %v: the schedule and the doorbell differ:\n--- schedule\n%+v\n--- doorbell\n%+v", at, sched, bell)
		}
		if sched.err != "" {
			stalled++
		}
		cells++
	}
	t.Logf("%d cells to %v, %d stalled", cells, clean.end, stalled)
	if stalled == 0 {
		t.Error("no crash stalled the ring")
	}
}

// TestCrashCompletionBufferScheduleEqualsDoorbell: a fail-stop crash leaves
// the same outcome whether each completion buffer is handed to the NIC as a
// one-credit run or rings its doorbell — how many operations every rank
// completed, the dead set it last saw and when it finished, every NIC's
// firmware counters, how and where the run ended. Four ranks take turns at
// a PE barrier and an AllReduce over a flat tree rooted at rank 0, providing
// a buffer for each; node 1 fail-stops at instants 7.3 µs apart across the
// run, so the crash lands between a call and its buffer's doorbell, on a
// doorbell, and while a rank waits. Failure detection is on: the survivors
// declare node 1 dead and finish around it.
func TestCrashCompletionBufferScheduleEqualsDoorbell(t *testing.T) {
	const n, iters = 4, 6
	type outcome struct {
		err      string
		done     [n]int
		dead     [n]string
		finished [n]sim.Time
		stats    [n]mcp.Stats
		end      sim.Time
		executed int64
	}
	run := func(at sim.Time, doorbell bool) (out outcome) {
		cfg := cluster.DefaultConfig(n)
		cfg.ReliableBarrier, cfg.DetectFailures = true, true
		cfg.Firmware.BarrierTimeout = sim.FromMicros(500)
		if at > 0 {
			cfg.Fault = &fault.Plan{Crashes: []fault.Crash{{Node: 1, At: at}}}
		}
		cl := cluster.New(cfg)
		defer cl.Close()
		for node := 0; node < n; node++ {
			cl.Spawn(node, node, func(p *host.Process) {
				port, err := gm.Open(p, cl.MCP(node), 2)
				if err != nil {
					t.Error(err)
					return
				}
				bar, coll := port.ProvideBarrierBuffer, port.ProvideCollectiveBuffer
				if doorbell {
					bar, coll = port.ProvideBarrierBufferByDoorbell, port.ProvideCollectiveBufferByDoorbell
				}
				var peers []mcp.Endpoint
				for d := 1; d < n; d <<= 1 {
					peers = append(peers, mcp.Endpoint{Node: network.NodeID(node ^ d), Port: 2})
				}
				sum := &mcp.CollToken{Op: mcp.AllReduce, Value: []byte{byte(node), 0, 0, 0, 0, 0, 0, 0},
					Root: node == 0, Parent: mcp.Endpoint{Node: 0, Port: 2}}
				if node == 0 {
					for c := 1; c < n; c++ {
						sum.Children = append(sum.Children, mcp.Endpoint{Node: network.NodeID(c), Port: 2})
					}
				}
				for i := 0; i < iters; i++ {
					want := mcp.BarrierDoneEvent
					if i%2 == 0 {
						err = bar(p)
						if err == nil {
							err = port.BarrierSend(p, &mcp.BarrierToken{Alg: mcp.PE, Peers: peers})
						}
					} else {
						want = mcp.CollDoneEvent
						err = coll(p)
						if err == nil {
							err = port.CollectiveSend(p, sum)
						}
					}
					if err != nil {
						t.Error(err)
						return
					}
					ev := port.ReceiveFor(p, anyEvent{})
					for ev.Kind != want {
						ev = port.ReceiveFor(p, anyEvent{})
					}
					out.done[node]++
					out.dead[node] = fmt.Sprint(ev.DeadNodes)
				}
				out.finished[node] = p.Now()
			})
		}
		if err := cl.Drain(); err != nil {
			out.err = err.Error()
		}
		for i := range out.stats {
			out.stats[i] = cl.MCP(i).Stats()
		}
		out.end = cl.Sim().Now()
		out.executed = cl.Sim().Executed()
		return out
	}
	clean, ref := run(0, false), run(0, true)
	if clean.err != "" || clean.done != [n]int{iters, iters, iters, iters} || clean.executed >= ref.executed {
		t.Fatalf("clean run: %q, completed %v, %d events against the doorbells' %d: want every operation and fewer events",
			clean.err, clean.done, clean.executed, ref.executed)
	}
	repaired, cells := 0, 0
	for at := sim.Time(0); at < clean.end; at += sim.FromMicros(7.3) {
		sched, bell := clean, ref
		if at > 0 {
			sched, bell = run(at, false), run(at, true)
		}
		bell.executed = sched.executed
		if sched != bell {
			t.Errorf("crash at %v: the schedule and the doorbell differ:\n--- schedule\n%+v\n--- doorbell\n%+v", at, sched, bell)
		}
		if sched.err == "" && sched.done[0] == iters && sched.dead[0] == "[1]" {
			repaired++
		}
		cells++
	}
	t.Logf("%d cells to %v, %d repaired around node 1", cells, clean.end, repaired)
	if repaired == 0 {
		t.Error("no crash was repaired around")
	}
}
