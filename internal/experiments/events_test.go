package experiments

import (
	"fmt"
	"strings"
	"testing"

	"gmsim/internal/cluster"
	"gmsim/internal/core"
	"gmsim/internal/fault"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/sim"
	"gmsim/internal/topo"
	"gmsim/internal/trace"
)

// engineWork is what a run cost the engine: events executed and process
// resumes (each a coroutine switch in and one out), start to drain.
type engineWork struct{ events, switches int64 }

// cellRun is what one run of a spec leaves behind for the differentials.
type cellRun struct {
	out   Outcome
	err   error       // from the run itself: a deadlock, a rank's error
	stats []mcp.Stats // every NIC's firmware counters, a dead one's included
	work  engineWork
}

// runCell runs spec on a fresh session. With observed the full-stack trace
// recorder is attached, as Run(spec, true) attaches it: a fabric observer,
// spans from every layer, recording gated around the timed window. Recording
// is passive (phase.Recorder, network.Observer), so an observed run executes
// the plain one event for event.
func runCell(t *testing.T, spec Spec, observed bool) cellRun {
	t.Helper()
	s, err := NewSession(spec.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var rec *trace.Recorder
	if observed {
		rec = trace.Attach(s.Cluster)
	}
	var r cellRun
	r.out, r.err = s.measure(spec, rec)
	r.stats = make([]mcp.Stats, s.Cluster.Nodes())
	for i := range r.stats {
		r.stats[i] = s.Cluster.MCP(i).Stats()
	}
	r.work = engineWork{s.Cluster.Sim().Executed(), s.Cluster.Sim().Switches()}
	return r
}

// show is what a run reports: its summary, or the error it ended with.
func (r cellRun) show() string {
	if r.err != nil {
		return r.err.Error() + "\n"
	}
	return r.out.Summary.String()
}

// sameOutcome holds run b of a cell to run a: the same summary or the same
// error, and the same firmware counters on every NIC.
func sameOutcome(t *testing.T, cell, formA, formB string, a, b cellRun) {
	t.Helper()
	if got, want := b.show(), a.show(); got != want {
		t.Errorf("%s:\n--- %s\n%s--- %s\n%s", cell, formA, want, formB, got)
	}
	for i := range a.stats {
		if a.stats[i] != b.stats[i] {
			t.Errorf("%s: node %d firmware counters differ:\n--- %s\n%+v\n--- %s\n%+v",
				cell, i, formA, a.stats[i], formB, b.stats[i])
		}
	}
}

// sameObserved runs a cell observed and holds it to its plain run: the same
// outcome, and the same events and process resumes to the one.
func sameObserved(t *testing.T, cell string, spec Spec, plain cellRun) {
	t.Helper()
	observed := runCell(t, spec, true)
	sameOutcome(t, cell, "plain", "observed", plain, observed)
	if observed.work != plain.work {
		t.Errorf("%s: observed run executed %d events and %d resumes, the plain run %d and %d",
			cell, observed.work.events, observed.work.switches, plain.work.events, plain.work.switches)
	}
}

// measured is runCell for a run that must succeed, by what it cost the
// engine.
func measured(t *testing.T, spec Spec, observed bool) (Outcome, engineWork) {
	t.Helper()
	r := runCell(t, spec, observed)
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.out, r.work
}

// TestEventsPerRankBarrier pins what one simulated barrier costs the engine,
// in executed events and in process resumes — the host-time drivers that do
// not depend on the host. The same cell at two iteration counts gives the
// steady-state cost of one barrier across the ranks and the set-up intercept
// (everything that is not a barrier: spawn, port open, receive-token
// provisioning) as exact integers; the run is deterministic, so they repeat
// to the event.
//
// Each cell is counted plain and observed, and the two must agree: observing
// a run does not change what it executes. Ahead of the event loop, a rank
// parks only for what is not there yet, and is resumed only for the event it
// waits for: a NIC barrier's completion, a host step's message. Events that
// arrive while it waits for something else — a host step's send completion,
// a message from another peer — are retired without a resume
// (gm.Port.ReceiveFor). The "+ 1" is rank 0, which settles its lead before it
// publishes a timed iteration (Session.measure).
//
// History. Before host charges became leads (sim.Proc.Advance) every charge
// was a sleep of its own, a timer event and a park: a NIC barrier has four
// (provide_bar_buf, gm_barrier_send, detect, bar_done), a host PE step six.
// That long form read 55 events and 5 resumes a rank on the first row, 25 and
// 5 on the second, 88 and 28 on the third and 660 / 240 in all on the fourth,
// and until observation stopped changing what runs, every observed run
// executed it. Before batched provisioning and the one-event fabric hop the
// first row read 85 events a rank and 532 992 outside barriers (two events
// per pre-posted buffer: 256 ranks × 1040 buffers), the second 33. The
// intercept read 267 008 before the leads: it has gained the closing settle
// of every rank but rank 0, which is level after its last iteration. It read
// 267 263 until pre-posted receive buffers cost no event at all (the NIC
// works out the tokens a batch has posted when it reads them); the 266 240
// that went were one doorbell per buffer, 256 ranks × 1040. The crossbar
// cells, unpinned until then, read 1 343, 1 339 and 1 339 (16 × 80 more).
// Until a parked rank was resumed only for the event it waits for, the host
// rows read 16 × 8 and 60 + 1 resumes (3.81 a rank on the fourth): every send
// completion and early message woke its rank, which paid for it and parked
// again. Until a DMA transfer was booked with the firmware task that starts
// it (lanai.NIC.ExecDMA) and a re-posted receive buffer became a one-token
// schedule (gm.Port.ProvideReceiveBuffer), a host-level message cost four
// events more — the sender's poll and both event records each handed their
// transfer to an engine in an event of its own, and the buffer rang a
// doorbell — and a NIC barrier's completion one more: the rows read 256 × 51
// + 1, 16 × 21 + 1, 16 × 64 + 1 and 16 × 30 + 1. Until every host credit
// reached the NIC as a run of its one credit schedule (mcp.MCP.
// ScheduleCredits), a NIC barrier's completion buffer rang a doorbell, and on
// the fourth row three re-posts a barrier still did (the NIC kept one
// schedule, and the rank's previous buffer was still crossing the bus): the
// rows read 256 × 50 + 1, 16 × 20 + 1, 16 × 48 + 1 and 363 + 1. The
// intercepts read 1 023, 63, 59 and 59 until then: a provisioning batch also
// settled the rank's lead and slept through its charge, one event a rank. A
// rise is a performance regression to be explained — the benchmark's
// op_cal_ms moves with these counts — not a number to bump.
func TestEventsPerRankBarrier(t *testing.T) {
	const warmup, lo, hi = 5, 10, 20
	for _, tc := range []struct {
		name  string
		cfg   cluster.Config
		level Level
		alg   mcp.BarrierAlg
		dim   int
		// One timed barrier, all ranks together (a GB rank's share depends on
		// its place in the tree).
		perBarrier engineWork
		intercept  int64 // events outside barriers
	}{
		// The benchmark's pe_steady cell: 8 dissemination steps over routes
		// of up to 5 switches.
		{"clos3-256 NIC PE", TopoConfig(topo.Clos3, 256, 16), NICLevel, mcp.PE, 0,
			engineWork{256*49 + 1, 256*1 + 1}, 767},
		// The paper's testbed: 4 steps through one crossbar.
		{"crossbar-16 NIC PE", cluster.DefaultConfig(16), NICLevel, mcp.PE, 0,
			engineWork{16*19 + 1, 16*1 + 1}, 47},
		// The benchmark's host16 cells.
		{"crossbar-16 host PE", cluster.DefaultConfig(16), HostLevel, mcp.PE, 0,
			engineWork{16*48 + 1, 16*4 + 1}, 43},
		{"crossbar-16 host GB-2", cluster.DefaultConfig(16), HostLevel, mcp.GB, 2,
			engineWork{360 + 1, 27 + 1}, 43}, // 22.56 events a rank, 1.75 resumes
	} {
		spec := Spec{Cluster: tc.cfg, Level: tc.level, Alg: tc.alg, Dim: tc.dim, Warmup: warmup}
		perBarrier := func(form string, observed bool) (atLo engineWork) {
			spec.Iters = lo
			_, a := measured(t, spec, observed)
			spec.Iters = hi
			_, b := measured(t, spec, observed)
			if (b.events-a.events)%(hi-lo) != 0 || (b.switches-a.switches)%(hi-lo) != 0 {
				t.Fatalf("%s, %s: %d events and %d resumes for %d more barriers: not a whole number each",
					tc.name, form, b.events-a.events, b.switches-a.switches, hi-lo)
			}
			got := engineWork{(b.events - a.events) / (hi - lo), (b.switches - a.switches) / (hi - lo)}
			n := float64(tc.cfg.Nodes)
			t.Logf("%s, %s: %d events and %d resumes per barrier (%.2f and %.2f a rank)",
				tc.name, form, got.events, got.switches, float64(got.events)/n, float64(got.switches)/n)
			if got != tc.perBarrier {
				t.Errorf("%s, %s: %d events and %d resumes per barrier, pinned at %d and %d",
					tc.name, form, got.events, got.switches, tc.perBarrier.events, tc.perBarrier.switches)
			}
			return a
		}
		a, o := perBarrier("plain", false), perBarrier("observed", true)
		if o != a {
			t.Errorf("%s: %d events and %d resumes observed, %d and %d plain", tc.name, o.events, o.switches, a.events, a.switches)
		}
		// NIC level: rank 0 settles in the warm-up barriers too (measure).
		intercept := a.events - tc.perBarrier.events*(warmup+lo)
		t.Logf("%s: %d events outside barriers", tc.name, intercept)
		if intercept != tc.intercept {
			t.Errorf("%s: %d events outside barriers, pinned at %d", tc.name, intercept, tc.intercept)
		}
	}
}

// TestCrashMidProvisioningBatchEqualsLoop: a fail-stop crash that lands
// while the ranks are still pre-posting receive buffers leaves the same
// outcome whether the buffers were posted as one batch or one call at a
// time — every rank's dead set and the instant it finished, every NIC's
// firmware counters, and where the run ended.
func TestCrashMidProvisioningBatchEqualsLoop(t *testing.T) {
	const n, bufs, iters = 16, 4*16 + 16, 10
	type provisioned struct {
		err      error
		dead     [n]string // as each rank last saw it
		finished [n]sim.Time
		stats    [n]mcp.Stats
		end      sim.Time
		pending  int // events pending as a rank's provisioning returned, at most
		faults   fault.Counters
	}
	run := func(at sim.Time, loop bool) (out provisioned) {
		s, err := NewSession(detectCfg(n, crashPlan(1, 5, at)))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		g := core.UniformGroup(n, 2)
		for node := 0; node < n; node++ {
			s.Spawn(node, 0, func(p *host.Process, comm *core.Comm) error {
				port := comm.Port()
				if loop {
					for i := 0; i < bufs; i++ {
						if err := port.ProvideReceiveBuffer(p); err != nil {
							return err
						}
					}
				} else if err := port.ProvideReceiveBuffers(p, bufs); err != nil {
					return err
				}
				out.pending = max(out.pending, s.Cluster.Sim().Pending())
				for i := 0; i < iters; i++ {
					pb, err := comm.StartBarrier(p, mcp.GB, g, p.Rank(), 4)
					if err != nil {
						return err
					}
					pb.Wait(p)
					p.Proc().Sync()
					out.dead[p.Rank()] = fmt.Sprint(pb.Dead())
				}
				out.finished[p.Rank()] = p.Now()
				return nil
			})
		}
		out.err = s.Run()
		for i := range out.stats {
			out.stats[i] = s.Cluster.MCP(i).Stats()
		}
		out.end = s.Cluster.Sim().Now()
		out.faults = s.Cluster.Fault().Counters()
		return out
	}
	// 16 ranks post 80 buffers each from 0.6 µs to 40.6 µs.
	for _, at := range []sim.Time{sim.FromMicros(20), sim.FromMicros(20.35), sim.FromMicros(40.7)} {
		batch, loop := run(at, false), run(at, true)
		if batch.err != nil || loop.err != nil {
			t.Fatalf("crash at %v: batch run %v, loop run %v", at, batch.err, loop.err)
		}
		if batch.dead != loop.dead || batch.finished != loop.finished || batch.stats != loop.stats || batch.end != loop.end {
			t.Errorf("crash at %v: the batch and the loop differ:\n--- batch\n%+v\n--- loop\n%+v", at, batch, loop)
		}
		// Neither form schedules an event per buffer: the loop hands the NIC
		// one-token runs, the batch one run of them all.
		if loop.pending >= bufs || batch.pending >= bufs {
			t.Errorf("crash at %v: %d events pending after a loop, %d after a batch: a buffer rang a doorbell",
				at, loop.pending, batch.pending)
		}
		survivors := 0
		for rank, d := range batch.dead {
			if batch.finished[rank] != 0 && d == "[5]" {
				survivors++
			}
		}
		if survivors != n-1 || batch.faults.Crashes != 1 {
			t.Errorf("crash at %v: %d survivors naming rank 5 dead, %d crashes: not a crash the survivors repaired around",
				at, survivors, batch.faults.Crashes)
		}
	}
}

// testbed is one fabric of the whole-stack differentials.
type testbed struct {
	name string
	cfg  cluster.Config
}

// differentialBeds are the fabrics the whole-stack differentials sweep: one
// crossbar at three sizes on both card models, and three multi-switch shapes
// at two sizes.
func differentialBeds() []testbed {
	var beds []testbed
	for _, n := range []int{5, 8, 16} {
		beds = append(beds,
			testbed{fmt.Sprintf("crossbar-%d", n), cluster.DefaultConfig(n)},
			testbed{fmt.Sprintf("crossbar-%d-l72", n), cluster.LANai72Config(n)})
	}
	for _, n := range []int{24, 64} {
		beds = append(beds,
			testbed{fmt.Sprintf("star-%d", n), TopoConfig(topo.Star, n, 16)},
			testbed{fmt.Sprintf("clos2-%d", n), TopoConfig(topo.Clos2, n, 16)},
			testbed{fmt.Sprintf("clos3-%d", n), TopoConfig(topo.Clos3, n, 8)})
	}
	return beds
}

// TestOneEventHopMatchesArrivalEventRuns is the whole-stack differential for
// the fabric's one-event hop: attaching an empty fault plan installs the
// injector's hook, which puts every hop back on its arrival event and is
// otherwise free, so each cell run both ways must give the same summary and
// the same firmware counters on every NIC to the bit — NIC and host level
// (barrier frames; data and ack frames), both algorithms, reliable barrier
// frames (retained by value, acks of another size on the wire) or not, one
// crossbar and three multi-switch shapes.
//
// Packets and wire frames go back to free lists with a hook or an observer
// installed too. The hooked run is held to the pinned outcome of the same
// cell run when they did not (testdata/onehop.golden), and its observed run
// to it; a frame handled after it went back to a free list would show up as
// a ProtocolErrors count. TestZeroFaultScenariosMatchFigure5 pins two such
// cells against Figure 5; this sweeps the configurations nothing else pins.
func TestOneEventHopMatchesArrivalEventRuns(t *testing.T) {
	ref := loadReference(t, "onehop")
	cells := 0
	for _, bed := range differentialBeds() {
		for _, reliable := range []bool{false, true} {
			for _, level := range []Level{NICLevel, HostLevel} {
				for _, dim := range []int{0, 1, 2, 4} { // 0: PE
					spec := Spec{Cluster: bed.cfg, Level: level, Alg: mcp.GB, Dim: dim, Warmup: 3, Iters: 10}
					if dim == 0 {
						spec.Alg = mcp.PE
					}
					spec.Cluster.ReliableBarrier = reliable
					cell := fmt.Sprintf("%s reliable=%v level=%v dim=%d", bed.name, reliable, level, dim)
					plain := runCell(t, spec, false)
					spec.Cluster.Fault = &fault.Plan{}
					hooked := runCell(t, spec, false)
					if plain.err != nil || hooked.err != nil {
						t.Fatalf("%s: %v / %v", cell, plain.err, hooked.err)
					}
					cells++
					sameOutcome(t, cell, "arrival events", "one event per hop", hooked, plain)
					ref.check(t, cell, hooked)
					sameObserved(t, cell, spec, hooked)
					for i, st := range hooked.stats {
						if st.ProtocolErrors != 0 {
							t.Errorf("%s: node %d: %d protocol errors", cell, i, st.ProtocolErrors)
						}
					}
				}
			}
		}
	}
	t.Logf("%d cells identical both ways", cells)
}

// TestChaosFramesOwnedOnce runs the fleet's chaos cells, which duplicate
// packets on node 11's cable, plain and observed. A duplicated packet carries
// a frame of its own; were the copies to share one, whichever was handled
// second would read a frame already back on a free list, a ProtocolErrors
// count.
func TestChaosFramesOwnedOnce(t *testing.T) {
	for _, sc := range ScenarioFleet() {
		if !strings.Contains(sc.Name, "chaos") {
			continue
		}
		spec := sc.Spec
		spec.Warmup, spec.Iters = 2, 8 // RunScenarios' defaults
		plain := runCell(t, spec, false)
		if plain.err != nil {
			t.Fatalf("%s: %v", sc.Name, plain.err)
		}
		if plain.out.Summary.Faults.Duplicated == 0 {
			t.Errorf("%s: no packet was duplicated", sc.Name)
		}
		for i, st := range plain.stats {
			if st.ProtocolErrors != 0 {
				t.Errorf("%s: node %d: %d protocol errors", sc.Name, i, st.ProtocolErrors)
			}
		}
		sameObserved(t, sc.Name, spec, plain)
	}
}
