package gm_test

import (
	"errors"
	"slices"
	"testing"
	"unsafe"

	"gmsim/internal/cluster"
	"gmsim/internal/gm"
	"gmsim/internal/host"
	"gmsim/internal/lanai"
	"gmsim/internal/mcp"
	"gmsim/internal/sim"
)

// anyEvent is a wait that every event ends: a plain gm_receive.
type anyEvent struct{}

func (anyEvent) Ends(mcp.HostEventKind, mcp.Endpoint) bool { return true }
func (anyEvent) File(*mcp.HostEvent)                       {}

// run spawns a single-node (or n-node) cluster and runs body as rank 0's
// process; extra ranks run extraBody.
func run(t *testing.T, n int, body func(cl *cluster.Cluster, p *host.Process), extra func(cl *cluster.Cluster, p *host.Process)) *cluster.Cluster {
	t.Helper()
	cl := cluster.New(cluster.DefaultConfig(n))
	cl.Spawn(0, 0, func(p *host.Process) { body(cl, p) })
	for i := 1; i < n; i++ {
		i := i
		cl.Spawn(i, i, func(p *host.Process) {
			if extra != nil {
				extra(cl, p)
			}
		})
	}
	cl.Run()
	return cl
}

func TestOpenClose(t *testing.T) {
	run(t, 1, func(cl *cluster.Cluster, p *host.Process) {
		port, err := gm.Open(p, cl.MCP(0), 2)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if port.Num() != 2 {
			t.Error("port state wrong after open")
		}
		if err := port.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := port.Close(); err == nil {
			t.Error("double close should error")
		}
		if err := port.Send(p, mcp.Endpoint{Node: 0, Port: 2}, nil); err == nil {
			t.Error("send on a closed port should error")
		}
	}, nil)
}

func TestOpenSamePortTwiceFails(t *testing.T) {
	run(t, 1, func(cl *cluster.Cluster, p *host.Process) {
		if _, err := gm.Open(p, cl.MCP(0), 2); err != nil {
			t.Errorf("first open: %v", err)
			return
		}
		if _, err := gm.Open(p, cl.MCP(0), 2); err == nil {
			t.Error("second open of same port should fail")
		}
	}, nil)
}

func TestSendReceiveRoundTrip(t *testing.T) {
	got := make(chan string, 1)
	run(t, 2, func(cl *cluster.Cluster, p *host.Process) {
		// rank 0: receiver
		port, err := gm.Open(p, cl.MCP(0), 2)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if err := port.ProvideReceiveBuffer(p); err != nil {
			t.Errorf("provide: %v", err)
			return
		}
		ev := port.ReceiveFor(p, anyEvent{})
		if ev.Kind != mcp.RecvEvent {
			t.Errorf("kind = %v", ev.Kind)
		}
		got <- string(ev.Data)
	}, func(cl *cluster.Cluster, p *host.Process) {
		port, err := gm.Open(p, cl.MCP(1), 2)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if err := port.Send(p, mcp.Endpoint{Node: 0, Port: 2}, []byte("ping")); err != nil {
			t.Errorf("send: %v", err)
		}
		// consume the completion
		if ev := port.ReceiveFor(p, anyEvent{}); ev.Kind != mcp.SentEvent {
			t.Errorf("expected sent event, got %v", ev.Kind)
		}
	})
	select {
	case s := <-got:
		if s != "ping" {
			t.Fatalf("payload = %q", s)
		}
	default:
		t.Fatal("receiver never got the message")
	}
}

func TestReceiveChargesHostCosts(t *testing.T) {
	run(t, 2, func(cl *cluster.Cluster, p *host.Process) {
		port, _ := gm.Open(p, cl.MCP(0), 2)
		port.ProvideReceiveBuffer(p)
		before := p.Now()
		ev := port.ReceiveFor(p, anyEvent{})
		after := p.Now()
		minCost := p.Params().RecvDetect + p.Params().EffectiveRecvProcess()
		if after-before < minCost {
			t.Errorf("ReceiveFor charged %v, want at least %v", after-before, minCost)
		}
		_ = ev
	}, func(cl *cluster.Cluster, p *host.Process) {
		port, _ := gm.Open(p, cl.MCP(1), 2)
		port.Send(p, mcp.Endpoint{Node: 0, Port: 2}, []byte("x"))
	})
}

func TestTryReceivePolling(t *testing.T) {
	run(t, 1, func(cl *cluster.Cluster, p *host.Process) {
		port, _ := gm.Open(p, cl.MCP(0), 2)
		t0 := p.Now()
		if _, ok := port.TryReceive(p); ok {
			t.Error("TryReceive on empty port should return false")
		}
		if p.Now()-t0 != p.Params().PollCost {
			t.Errorf("empty poll cost = %v, want %v", p.Now()-t0, p.Params().PollCost)
		}
		if port.PendingEvents() != 0 {
			t.Error("PendingEvents should be 0")
		}
	}, nil)
}

func TestSendOnClosedPortFails(t *testing.T) {
	run(t, 1, func(cl *cluster.Cluster, p *host.Process) {
		port, _ := gm.Open(p, cl.MCP(0), 2)
		port.Close()
		if err := port.Send(p, mcp.Endpoint{Node: 0, Port: 3}, []byte("x")); err == nil {
			t.Error("send on closed port should fail")
		}
		if err := port.ProvideReceiveBuffer(p); err == nil {
			t.Error("provide on closed port should fail")
		}
		if err := port.ProvideBarrierBuffer(p); err == nil {
			t.Error("provide barrier on closed port should fail")
		}
	}, nil)
}

func TestSendTokenExhaustionAtHost(t *testing.T) {
	run(t, 2, func(cl *cluster.Cluster, p *host.Process) {
		port, _ := gm.Open(p, cl.MCP(0), 2)
		var err error
		sent := 0
		for i := 0; i < 20; i++ {
			err = port.Send(p, mcp.Endpoint{Node: 1, Port: 2}, []byte("x"))
			if err != nil {
				break
			}
			sent++
		}
		if err == nil {
			t.Error("expected send-token exhaustion")
		}
		// Drain completions so the simulation terminates.
		for i := 0; i < sent; i++ {
			if ev := port.ReceiveFor(p, anyEvent{}); ev.Kind != mcp.SentEvent {
				t.Errorf("unexpected event %v", ev.Kind)
			}
		}
	}, func(cl *cluster.Cluster, p *host.Process) {
		port, _ := gm.Open(p, cl.MCP(1), 2)
		for i := 0; i < 20; i++ {
			port.ProvideReceiveBuffer(p)
		}
		for i := 0; i < 16; i++ {
			port.ReceiveFor(p, anyEvent{})
		}
	})
}

// TestSendTokenLimitIsTheNICs: the host-side mirror refuses a send at the
// limit of the NIC the port is open on, whatever that NIC was configured
// with, so a Send the mirror lets through is never one the NIC refuses.
func TestSendTokenLimitIsTheNICs(t *testing.T) {
	s := sim.New()
	cfg := mcp.DefaultConfig()
	cfg.MaxSendTokens = 3
	m := &mcp.NewMCPs(lanai.NewNICs(s, lanai.LANai43(), 1), cfg)[0]
	sent := 0
	var err error
	s.Spawn("rank0", func(proc *sim.Proc) {
		p := host.NewProcess(proc, 0, 0, host.DefaultParams())
		port, oerr := gm.Open(p, m, 2)
		if oerr != nil {
			t.Error(oerr)
			return
		}
		for ; sent < 10; sent++ {
			if err = port.Send(p, mcp.Endpoint{Node: 0, Port: 3}, []byte("x")); err != nil {
				break
			}
		}
	})
	s.RunUntil(sim.Millisecond) // long enough for the body; the NIC's retries to the closed port are cut off
	s.Close()
	if sent != 3 || !errors.Is(err, gm.ErrNoSendTokens) {
		t.Fatalf("%d sends went through, then %v; want 3, then %v", sent, err, gm.ErrNoSendTokens)
	}
}

// families are the port's two operation families as a test drives them: the
// paper's barrier calls and their collective twins, each with a token that
// completes on a one-node cluster (an empty PE schedule; a lone tree root).
var families = []struct {
	name    string
	provide func(*gm.Port, *host.Process) error
	send    func(pt *gm.Port, p *host.Process) error
	done    mcp.HostEventKind
}{
	{
		name:    "barrier",
		provide: (*gm.Port).ProvideBarrierBuffer,
		send: func(pt *gm.Port, p *host.Process) error {
			return pt.BarrierSend(p, &mcp.BarrierToken{Alg: mcp.PE})
		},
		done: mcp.BarrierDoneEvent,
	},
	{
		name:    "collective",
		provide: (*gm.Port).ProvideCollectiveBuffer,
		send: func(pt *gm.Port, p *host.Process) error {
			return pt.CollectiveSend(p, &mcp.CollToken{Op: mcp.AllReduce, Root: true, Value: []byte{1, 0, 0, 0, 0, 0, 0, 0}})
		},
		done: mcp.CollDoneEvent,
	},
}

// TestBarrierValidation: for both families, a post is refused on a closed
// port, without a completion buffer, and while one is in flight — until its
// completion event is received, even after the NIC has completed it — and
// allowed again after it.
func TestBarrierValidation(t *testing.T) {
	for _, f := range families {
		run(t, 1, func(cl *cluster.Cluster, p *host.Process) {
			port, _ := gm.Open(p, cl.MCP(0), 2)
			if err := f.send(port, p); err == nil {
				t.Errorf("%s without buffer should fail", f.name)
			}
			f.provide(port, p)
			if err := f.send(port, p); err != nil {
				t.Errorf("%s: %v", f.name, err)
			}
			// The operation completes at once, but the completion is not
			// consumed yet, so the host-side mirror still says in flight.
			f.provide(port, p)
			if err := f.send(port, p); err == nil {
				t.Errorf("second %s while active should fail", f.name)
			}
			if ev := port.ReceiveFor(p, anyEvent{}); ev.Kind != f.done {
				t.Errorf("%s: expected %v, got %v", f.name, f.done, ev.Kind)
			}
			// The buffer provided for the refused post is still there.
			if err := f.send(port, p); err != nil {
				t.Errorf("%s after completion: %v", f.name, err)
			}
			port.ReceiveFor(p, anyEvent{})
			port.Close()
			if err := f.provide(port, p); err == nil {
				t.Errorf("provide %s buffer on closed port should fail", f.name)
			}
			if err := f.send(port, p); err == nil {
				t.Errorf("%s on closed port should fail", f.name)
			}
		}, nil)
	}
}

// TestPortSize pins the host-side port, one per rank, to the 240-byte size
// class: it holds the event queue, the mirrors of the NIC's tokens and the
// send and token doorbells, and no tallies of its own (the NIC's mcp.Stats
// counts traffic).
func TestPortSize(t *testing.T) {
	if got := unsafe.Sizeof(gm.Port{}); got > 240 {
		t.Errorf("gm.Port is %d bytes, want ≤ 240", got)
	}
}

func TestReceiveBlocksUntilDelivery(t *testing.T) {
	var recvAt, sendAt sim.Time
	run(t, 2, func(cl *cluster.Cluster, p *host.Process) {
		port, _ := gm.Open(p, cl.MCP(0), 2)
		port.ProvideReceiveBuffer(p)
		port.ReceiveFor(p, anyEvent{})
		recvAt = p.Now()
	}, func(cl *cluster.Cluster, p *host.Process) {
		port, _ := gm.Open(p, cl.MCP(1), 2)
		p.Compute(500 * sim.Microsecond) // send late
		sendAt = p.Now()
		port.Send(p, mcp.Endpoint{Node: 0, Port: 2}, []byte("x"))
	})
	if recvAt <= sendAt {
		t.Fatalf("receive completed at %v before send at %v", recvAt, sendAt)
	}
}

// TestMalformedCollectiveTokenIsRefusedAtTheCall: a token the firmware would
// reject comes back as an error from CollectiveSend on every rank, before any
// host-side state moved — the buffer provided for it is still there and no
// collective counts as in flight, so the good token that follows completes
// without another ProvideCollectiveBuffer. (The firmware's refusal used to
// surface one doorbell later, as a panic inside the event loop.)
func TestMalformedCollectiveTokenIsRefusedAtTheCall(t *testing.T) {
	const n = 4
	results := make([][]byte, n)
	body := func(cl *cluster.Cluster, p *host.Process) {
		rank := p.Rank()
		port, err := gm.Open(p, cl.MCP(rank), 2)
		if err != nil {
			t.Errorf("rank %d: open: %v", rank, err)
			return
		}
		if err := port.ProvideCollectiveBuffer(p); err != nil {
			t.Errorf("rank %d: provide: %v", rank, err)
			return
		}
		// A star: rank 0 gathers from and broadcasts to everyone else.
		tok := func(block []byte, blockSize int) *mcp.CollToken {
			tk := &mcp.CollToken{
				Op: mcp.AllGather, Value: block,
				Rank: rank, BlockSize: blockSize, GroupSize: n,
				Root: rank == 0, Parent: mcp.Endpoint{Node: 0, Port: 2},
			}
			for c := 1; rank == 0 && c < n; c++ {
				tk.Children = append(tk.Children, mcp.Endpoint{Node: cl.MCP(c).Node(), Port: 2})
			}
			return tk
		}
		block := []byte{byte('a' + rank), byte('A' + rank)}
		for _, bad := range []*mcp.CollToken{tok(nil, 0), tok(block, len(block)+1)} {
			if err := port.CollectiveSend(p, bad); err == nil {
				t.Errorf("rank %d: malformed allgather token accepted", rank)
			}
		}
		if err := port.CollectiveSend(p, tok(block, len(block))); err != nil {
			t.Errorf("rank %d: good token after the refused ones: %v", rank, err)
			return
		}
		ev := port.ReceiveFor(p, anyEvent{})
		if ev.Kind != mcp.CollDoneEvent {
			t.Errorf("rank %d: event %v, want coll-done", rank, ev.Kind)
		}
		results[rank] = ev.Data
	}
	run(t, n, body, body)
	for rank, got := range results {
		if string(got) != "aAbBcCdD" {
			t.Errorf("rank %d: allgather result %q", rank, got)
		}
	}
}

// TestKilledSenderRingsNoUnwrittenDoorbell: a process's charges are leads on
// its own clock, so by the time it first parks it has scheduled doorbells the
// event loop has yet to reach. If the process is killed first it never wrote
// them. The sender posts two sends back to back and is killed — the process
// alone; its NIC lives on and would transmit whatever it is handed — at every
// tenth of a microsecond from before the first call to after the second
// doorbell. Each run is compared, by the firmware counters of both NICs, with
// a sender that is never killed but makes only the calls the killed one lived
// to make (a call at instant c is made iff the kill comes after c) and then
// parks for good.
func TestKilledSenderRingsNoUnwrittenDoorbell(t *testing.T) {
	run := func(sends int, killAt sim.Time) [2]mcp.Stats {
		cl := cluster.New(cluster.DefaultConfig(2))
		defer cl.Close()
		cl.Spawn(0, 0, func(p *host.Process) {
			port, _ := gm.Open(p, cl.MCP(0), 2)
			port.ProvideReceiveBuffers(p, 2)
			port.ReceiveFor(p, anyEvent{})
			port.ReceiveFor(p, anyEvent{})
		})
		sender := cl.Spawn(1, 1, func(p *host.Process) {
			port, _ := gm.Open(p, cl.MCP(1), 2)
			p.Compute(5 * sim.Microsecond) // the receiver's buffers are in place
			for i := 0; i < sends; i++ {
				port.Send(p, mcp.Endpoint{Node: 0, Port: 2}, []byte{byte(i)})
			}
			p.Wait(cl.Sim().NewSignal()) // parks for good, completions unread
		})
		if killAt >= 0 {
			cl.Sim().At(killAt, sender.Proc().Kill)
		}
		cl.Sim().Run() // the receiver strands whenever a send is lost
		return [2]mcp.Stats{cl.MCP(0).Stats(), cl.MCP(1).Stats()}
	}
	// Open returns at 0.6 µs, the sends are posted at 8.6 and 11.6 and reach
	// the NIC at 9.2 and 12.2.
	calls := []sim.Time{sim.FromMicros(8.6), sim.FromMicros(11.6)}
	delivered := map[int64]int{}
	for killAt := sim.FromMicros(4); killAt <= sim.FromMicros(14); killAt += sim.FromMicros(0.1) {
		made := 0
		for _, c := range calls {
			if killAt > c {
				made++
			}
		}
		killed, lived := run(len(calls), killAt), run(made, -1)
		if killed != lived {
			t.Errorf("sender killed at %v: firmware counters differ from a sender that made %d calls:\n--- killed\n%+v\n--- made %d\n%+v",
				killAt, made, killed, made, lived)
		}
		delivered[killed[0].DataDelivered]++
	}
	if delivered[0] != 47 || delivered[1] != 30 || delivered[2] != 24 {
		t.Errorf("messages delivered over the sweep: %v; want 47 runs with none, 30 with one, 24 with both", delivered)
	}
}

// TestOpenAndCloseSettleTheLead: Open and Close reach into the NIC directly,
// not through a doorbell on the process's clock, so a process that leads the
// event loop by the charges of earlier calls settles first: the NIC sees the
// port open and closed at the process's instant, the sum of the charges
// before the call.
func TestOpenAndCloseSettleTheLead(t *testing.T) {
	type change struct {
		at   sim.Time
		open [2]bool // ports 2 and 3
	}
	run := func() (changes []change) {
		cl := cluster.New(cluster.DefaultConfig(1))
		defer cl.Close()
		s := cl.Sim()
		var last [2]bool
		var sample func()
		sample = func() {
			if now := [2]bool{cl.MCP(0).Port(2).Open(), cl.MCP(0).Port(3).Open()}; now != last {
				changes = append(changes, change{s.Now(), now})
				last = now
			}
			if s.Now() < 20*sim.Microsecond {
				s.After(100, sample)
			}
		}
		s.After(0, sample)
		cl.Spawn(0, 0, func(p *host.Process) {
			a, err := gm.Open(p, cl.MCP(0), 2)
			if err != nil {
				t.Error(err)
				return
			}
			a.ProvideReceiveBuffer(p) // 0.5 µs
			a.ProvideBarrierBuffer(p) // 0.5 µs
			b, err := gm.Open(p, cl.MCP(0), 3)
			if err != nil {
				t.Error(err)
				return
			}
			b.ProvideReceiveBuffer(p)
			b.ProvideReceiveBuffer(p)
			if err := a.Close(); err != nil {
				t.Error(err)
			}
		})
		cl.Run()
		return changes
	}
	want := []change{
		{100, [2]bool{true, false}},                // the first look after the process started
		{sim.FromMicros(1.6), [2]bool{true, true}}, // 0.6 for the first Open, two calls
		{sim.FromMicros(3.2), [2]bool{false, true}},
	}
	if got := run(); !slices.Equal(got, want) {
		t.Errorf("ports 2 and 3 open, as the NIC saw it:\n got  %v\n want %v", got, want)
	}
}
