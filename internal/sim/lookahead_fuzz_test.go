package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The property behind Proc's lead: a program run as written — charges are
// leads, settled only where the Proc contract says — and the same program
// with a Sync after every Advance, so that no process ever leads the loop,
// cannot be told apart by anything the program can observe.

// aheadProgram is what FuzzProcLookahead decodes its bytes into: up to four
// processes that share one signal, each with an inbox only it consumes — the
// shape of a gm port: a level the event loop raises, a queue one process
// drains — plus deliveries and kills scheduled before the run starts.
type aheadProgram struct {
	ops        [][]aheadOp // by process
	deliveries []aheadAt   // inbox[proc]++ and a Fire at the instant
	kills      []aheadAt
}

type aheadAt struct {
	proc int
	at   Time
}

type aheadOp struct{ code, arg byte }

// Processes keep even clocks and deliveries land at odd instants, so that a
// process never looks at its inbox in the nanosecond something arrives: an
// event a leading process schedules has an earlier sequence number than the
// one its settled twin schedules later, and the two runs may order the events
// of one nanosecond differently (see Proc).
const (
	opAdvance = iota // charge 2*(arg%32) of CPU time
	opAfter          // After(arg%16): log when it runs
	opRecv           // take one delivery from the inbox, Await-ing for it
	opSleep          // Sleep(2*(arg%16))
	opSync           // Sync
	opSend           // After(1+2*(arg%4)): deliver to process arg/4
	opPublish        // Sync, then log the process's clock
	opPoll           // Sync, then log whether the inbox is empty
	opWait           // Wait for the next Fire, whoever it is for
	numAheadOps
)

var aheadOpNames = [numAheadOps]string{"Advance", "After", "Recv", "Sleep", "Sync", "Send", "Publish", "Poll", "Wait"}

// String renders the program as TestLookaheadCorpusPrograms pins it.
func (prog aheadProgram) String() string {
	var b strings.Builder
	for _, kl := range prog.kills {
		fmt.Fprintf(&b, "kill p%d@%d; ", kl.proc, kl.at)
	}
	for _, d := range prog.deliveries {
		fmt.Fprintf(&b, "deliver p%d@%d; ", d.proc, d.at)
	}
	for i, ops := range prog.ops {
		fmt.Fprintf(&b, "p%d:", i)
		for _, op := range ops {
			fmt.Fprintf(&b, " %s(%d)", aheadOpNames[op.code], op.arg)
		}
		if i < len(prog.ops)-1 {
			b.WriteString("; ")
		}
	}
	return b.String()
}

func decodeAheadProgram(data []byte) aheadProgram {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	k := 1 + int(next()%4)
	prog := aheadProgram{ops: make([][]aheadOp, k)}
	for n := next() % 3; n > 0; n-- {
		prog.kills = append(prog.kills, aheadAt{int(next()) % k, 3 * Time(next())})
	}
	for n := next() % 8; n > 0; n-- {
		prog.deliveries = append(prog.deliveries, aheadAt{int(next()) % k, 2*Time(next()) + 1})
	}
	for n := 0; n < 64 && len(data) > 0; n++ {
		b := next()
		proc := int(b>>3) % k
		prog.ops[proc] = append(prog.ops[proc], aheadOp{b % numAheadOps, next()})
	}
	return prog
}

// aheadEntry is one thing a run made observable: what, by whom, at which
// instant, and the clock the process read when it asked for it.
type aheadEntry struct {
	at    Time
	proc  int
	tag   int
	clock Time
}

// aheadOutcome is everything a run of the program leaves behind.
type aheadOutcome struct {
	log      []aheadEntry
	finished []bool
	killed   []bool
	stranded int
	end      Time
	unlevel  int // times a call that settles the lead returned with one
}

// run executes the program; with settle, a Sync follows every Advance.
func (prog aheadProgram) run(settle bool) aheadOutcome {
	s := New()
	defer s.Close()
	k := len(prog.ops)
	sig := s.NewSignal()
	inbox := make([]int, k)
	procs := make([]*Proc, k)
	var out aheadOutcome
	log := func(proc, tag int, clock Time) {
		out.log = append(out.log, aheadEntry{s.Now(), proc, tag, clock})
	}
	deliver := func(to int) {
		inbox[to]++
		sig.Fire()
	}
	for i := range prog.ops {
		procs[i] = s.Spawn("p", func(p *Proc) {
			level := func() {
				if p.Now() != s.Now() {
					out.unlevel++
				}
			}
			advance := func(d Time) {
				p.Advance(d)
				if settle {
					p.Sync()
					level()
				}
			}
			for n, op := range prog.ops[i] {
				switch op.code {
				case opAdvance:
					advance(2 * Time(op.arg%32))
				case opAfter:
					called := p.Now()
					p.Sim().At(p.Now()+Time(op.arg%16), func() {
						if !p.KilledBy(called) {
							log(i, n, called)
						}
					})
				case opRecv:
					for inbox[i] == 0 {
						p.Await(sig)
					}
					inbox[i]--
					advance(p.Now() % 2) // a Fire comes at an odd instant
				case opSleep:
					p.Sleep(2 * Time(op.arg%16))
					level()
				case opSync:
					p.Sync()
					level()
				case opSend:
					called, to := p.Now(), int(op.arg/4)%k
					p.Sim().At(p.Now()+1+2*Time(op.arg%4), func() {
						if !p.KilledBy(called) {
							log(i, n, called)
							deliver(to)
						}
					})
				case opPublish:
					p.Sync()
					level()
					log(i, n, p.Now())
				case opPoll:
					// What TryReceive does: an empty inbox now says nothing
					// about the process's own instant.
					p.Sync()
					log(i, n+1000*min(inbox[i], 1), p.Now())
				case opWait:
					p.Wait(sig)
					level()
					advance(p.Now() % 2)
				}
			}
		})
	}
	// Scheduled before anything has run: at a shared instant these go first,
	// as the crashes of a fault plan do.
	for _, kl := range prog.kills {
		s.At(kl.at, procs[kl.proc].Kill)
	}
	for _, d := range prog.deliveries {
		s.At(d.at, func() { deliver(d.proc) })
	}
	s.Run()
	for _, p := range procs {
		out.finished = append(out.finished, p.finished)
		out.killed = append(out.killed, p.Killed())
	}
	out.stranded, out.end = s.Stranded(), s.Now()
	// Two processes' entries of one nanosecond may swap (see above); nothing
	// in the program can tell.
	slices.SortFunc(out.log, func(a, b aheadEntry) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.proc, b.proc), cmp.Compare(a.tag, b.tag))
	})
	return out
}

func checkAheadProgram(t *testing.T, data []byte) {
	prog := decodeAheadProgram(data)
	ahead, settled := prog.run(false), prog.run(true)
	if !slices.Equal(ahead.log, settled.log) {
		t.Errorf("logs differ (at, proc, tag, clock):\n ahead   %v\n settled %v", ahead.log, settled.log)
	}
	if !slices.Equal(ahead.finished, settled.finished) || !slices.Equal(ahead.killed, settled.killed) || ahead.stranded != settled.stranded {
		t.Errorf("ahead: finished %v killed %v stranded %d; settled: finished %v killed %v stranded %d",
			ahead.finished, ahead.killed, ahead.stranded, settled.finished, settled.killed, settled.stranded)
	}
	// A killed process leaves no-op events behind — the wake of its sleep,
	// the After callbacks of calls it did not live to make — and which ones
	// depends on where it was parked, so the clock may stop elsewhere.
	if !slices.Contains(ahead.killed, true) && ahead.end != settled.end {
		t.Errorf("the run ended at %v ahead, %v settled", ahead.end, settled.end)
	}
	if ahead.unlevel+settled.unlevel > 0 {
		t.Errorf("a settling call returned ahead of the loop %d times ahead, %d settled", ahead.unlevel, settled.unlevel)
	}
	if t.Failed() {
		t.Logf("program: %+v", prog)
	}
}

// FuzzProcLookahead checks the property on programs decoded from the fuzzer's
// bytes. The seed corpus — hand-written shapes under testdata/fuzz and 512
// drawn programs — runs under plain `go test`.
func FuzzProcLookahead(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 512; i++ {
		data := make([]byte, 8+rng.Intn(120))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(checkAheadProgram)
}

// TestLookaheadCorpusPrograms pins what each hand-written corpus file decodes
// to. An op is its byte modulo numAheadOps, so adding or removing an op
// reshuffles every saved input; this fails until the files are re-encoded to
// the programs they were written for.
func TestLookaheadCorpusPrograms(t *testing.T) {
	want := map[string]string{
		"seed_barrier_shape": "p0: Advance(1) Send(0) Advance(3) Send(3) Recv(0) Recv(0) Advance(2) Advance(5)" +
			" Advance(1) Send(0) Advance(3) Send(3) Recv(0) Recv(0) Advance(2) Advance(5)" +
			" Advance(1) Send(0) Advance(3) Send(3) Recv(0) Recv(0) Advance(2) Advance(5) Publish(0)",
		"seed_kill_inside_lead": "kill p0@24; deliver p1@51; " +
			"p0: Advance(10) After(5) Send(5) Advance(10) After(5) Send(5) Advance(10) After(0) Recv(0); " +
			"p1: Recv(0) Recv(0) Publish(0)",
		"seed_kills": "kill p0@30; kill p1@60; deliver p2@45; " +
			"p0: Advance(4) Sleep(15) Publish(0); p1: Advance(12) Recv(0); p2: Recv(0) Advance(20) After(3)",
		"seed_ping_pong": "p0:" + strings.Repeat(" Advance(3) Send(4) Recv(0) Advance(7)", 4) + " Publish(0); " +
			"p1:" + strings.Repeat(" Recv(0) Advance(7) Advance(3) Send(0)", 4) + " Publish(0)",
		"seed_poll_after_lead": "deliver p0@21; p0: Poll(0) Advance(15) Poll(0) Recv(0) Poll(0)",
		"seed_shared_signal": "deliver p3@11; deliver p1@23; deliver p0@41; deliver p2@77; deliver p1@79; " +
			"p0: Advance(20) Recv(0) After(1); p1: Advance(2) Recv(0) Recv(0) After(1); " +
			"p2: Recv(0) Advance(9) After(1); p3: Advance(30) Recv(0) After(1)",
		"seed_stranded_with_lead": "p0: Advance(31) Advance(9) Recv(0); p1: Sleep(5) Advance(3)",
		"seed_wait_is_an_edge": "deliver p1@21; deliver p1@81; deliver p1@141; " +
			"p0: Advance(25) Wait(0) Publish(0) Advance(10) Advance(10); p1:",
	}
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzProcLookahead", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(want) {
		t.Errorf("%d corpus files, %d pinned programs", len(files), len(want))
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		header, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if header != "go test fuzz v1" || err != nil {
			t.Fatalf("%s: not a one-value corpus file (%v)", path, err)
		}
		name := filepath.Base(path)
		if got := decodeAheadProgram([]byte(data)).String(); got != want[name] {
			t.Errorf("%s decodes to\n %s\nwant\n %s", name, got, want[name])
		}
	}
}
