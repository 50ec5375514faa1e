package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gmsim/internal/cluster"
	"gmsim/internal/core"
	"gmsim/internal/experiments"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/sim"
)

// drainClose drains and closes a server within a bounded wait.
func drainClose(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// appendJournal writes raw records to a journal file — the bytes a server
// killed at the worst moment would have left behind.
func appendJournal(t *testing.T, path string, lines ...string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, l := range lines {
		if _, err := f.WriteString(l); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestartRecovery is the crash-recovery acceptance test, in-process:
// a first server completes a run (stored on disk, journaled done); the
// crash state is reconstructed exactly as kill -9 leaves it — a pending
// accept for a job that never ran, a pending accept whose result reached
// the store but whose done record did not, and a torn half-record at the
// journal tail. The restarted server must serve the completed results
// from disk byte-identically with zero re-simulation, re-enqueue and
// finish the interrupted job, and later transparently heal a deliberately
// corrupted store file by re-simulating to byte-identical output.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.jsonl")
	specA := Spec{Nodes: 4, Iters: 10, Warmup: 2}
	specB := Spec{Nodes: 5, Iters: 10, Warmup: 2}

	// Life 1: run specA to completion; its entry lands in the store.
	srv1 := newTestServer(t, Config{Dir: dir, Workers: 1})
	ts1 := httptest.NewServer(srv1.Handler())
	resp, bodyA := post(t, ts1.Client(), ts1.URL+"/v1/runs", specA, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("life 1 run: %d %s", resp.StatusCode, bodyA)
	}
	ts1.Close()
	drainClose(t, srv1)

	canonA, err := specA.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	hA, _ := canonA.Hash()
	canonB, err := specB.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	hB, _ := canonB.Hash()
	mustJSON := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	// Reconstruct the kill -9 journal: an accept for specB (interrupted
	// before it ran), an accept for specA whose done record was lost (the
	// result is already in the store), an accept written by a version that
	// still had the partitioned engine (canonical then: partitions 2, hashed
	// as such), and a torn tail.
	legacy := canonB
	legacy.Topo, legacy.Radix, legacy.Nodes, legacy.Partitions = "clos2", 8, 32, 2
	sumP := sha256.Sum256([]byte(mustJSON(legacy)))
	hP := hex.EncodeToString(sumP[:])
	idB := fmt.Sprintf("j%06d-%s", 41, hB[:8])
	idA2 := fmt.Sprintf("j%06d-%s", 42, hA[:8])
	idP := fmt.Sprintf("j%06d-%s", 43, hP[:8])
	appendJournal(t, journalPath,
		mustJSON(journalRecord{Op: opAccept, ID: idB, Key: "k1", Hash: hB, Spec: &canonB})+"\n",
		mustJSON(journalRecord{Op: opAccept, ID: idA2, Key: "k2", Hash: hA, Spec: &canonA})+"\n",
		mustJSON(journalRecord{Op: opAccept, ID: idP, Key: "k3", Hash: hP, Spec: &legacy})+"\n",
		`{"op":"accept","id":"j0000`, // torn mid-append by the crash
	)

	// Life 2: replay.
	srv2 := newTestServer(t, Config{Dir: dir, Workers: 1})
	ts2 := httptest.NewServer(srv2.Handler())

	// The job whose result already reached the store is done immediately —
	// served from disk, zero simulation.
	r, err := ts2.Client().Get(ts2.URL + "/v1/runs/" + idA2)
	if err != nil {
		t.Fatal(err)
	}
	var stA JobStatus
	if err := json.NewDecoder(r.Body).Decode(&stA); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if stA.Status != JobDone {
		t.Fatalf("store-backed replayed job is %q, want done", stA.Status)
	}
	if string(stA.Result) != string(bodyA) {
		t.Fatalf("replayed result differs from pre-crash bytes:\n got %s\nwant %s", stA.Result, bodyA)
	}
	if reg := srv2.reg; reg.Get("service.journal.replay_served") != 1 {
		t.Errorf("replay_served = %d, want 1", reg.Get("service.journal.replay_served"))
	}
	if reg := srv2.reg; reg.Get("service.cache.disk_hits") == 0 {
		t.Error("no disk hits recorded for the store-backed replay")
	}
	if srv2.journal.Torn() != 1 {
		t.Errorf("torn journal lines = %d, want 1", srv2.journal.Torn())
	}

	// settled waits for a replayed job, which keeps its ID, to end.
	settled := func(id string) JobStatus {
		t.Helper()
		return awaitJob(t, srv2, ts2, id)
	}

	// The interrupted job completes after replay.
	stB := settled(idB)
	if stB.Status != JobDone {
		t.Fatalf("replayed job ended %s: %s", stB.Status, stB.Error)
	}
	_, freshB := execJSON(t, specB)
	if string(stB.Result) != string(freshB) {
		t.Fatalf("replayed run diverged from serial execution:\n got %s\nwant %s", stB.Result, freshB)
	}
	if reg := srv2.reg; reg.Get("service.journal.replayed") != 2 {
		t.Errorf("journal.replayed = %d, want 2 (specB and the legacy accept)", reg.Get("service.journal.replayed"))
	}

	// The legacy accept ends failed, naming the removed engine, and the
	// server goes on serving.
	stP := settled(idP)
	if stP.Status != JobFailed || !strings.Contains(stP.Error, "partitioned engine was removed") {
		t.Errorf("replayed partitions=2 accept is %q (%s), want failed naming the removal", stP.Status, stP.Error)
	}

	// Completed results are pure disk hits after restart: re-posting specA
	// must not move the simulation counter (only specB's replay ran).
	runsBefore := srv2.reg.Get("service.runs")
	resp, body := post(t, ts2.Client(), ts2.URL+"/v1/runs", specA, "")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("warm-from-disk repost: status %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if string(body) != string(bodyA) {
		t.Fatalf("post-restart body differs from pre-crash bytes:\n got %s\nwant %s", body, bodyA)
	}
	if runs := srv2.reg.Get("service.runs"); runs != runsBefore {
		t.Errorf("re-post of a stored result re-simulated: runs %d -> %d", runsBefore, runs)
	}
	ts2.Close()
	drainClose(t, srv2)

	// Life 3: a deliberately corrupted store file is quarantined and its
	// spec transparently re-simulated to byte-identical output.
	entryPath := filepath.Join(dir, "store", hA[:2], hA)
	data, err := os.ReadFile(entryPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0x01
	if err := os.WriteFile(entryPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	srv3 := newTestServer(t, Config{Dir: dir, Workers: 1})
	defer drainClose(t, srv3)
	ts3 := httptest.NewServer(srv3.Handler())
	defer ts3.Close()
	resp, body = post(t, ts3.Client(), ts3.URL+"/v1/runs", specA, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-corruption run: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Errorf("corrupt entry served as a cache hit")
	}
	if string(body) != string(bodyA) {
		t.Fatalf("re-simulated result differs from original bytes:\n got %s\nwant %s", body, bodyA)
	}
	if _, _, _, q := srv3.store.Stats(); q != 1 {
		t.Errorf("quarantined = %d, want 1", q)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "store", "quarantine", hA+".*")); len(files) != 1 {
		t.Errorf("quarantine dir holds %v, want one file for %s", files, hA[:8])
	}
	// The healed slot serves from disk on the next life.
	if _, ok := srv3.store.Get(hA); !ok {
		t.Error("store slot not healed after re-simulation")
	}
}

// TestReadThroughAcrossRestart: the plain warm-from-disk path — a drained
// server's results survive into the next life and are served without any
// simulation at all.
func TestReadThroughAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Nodes: 4, Alg: "gb", Dim: 3, Iters: 10, Warmup: 2}

	srv1 := newTestServer(t, Config{Dir: dir, Workers: 1})
	ts1 := httptest.NewServer(srv1.Handler())
	resp, want := post(t, ts1.Client(), ts1.URL+"/v1/runs", spec, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first run: %d %s", resp.StatusCode, want)
	}
	ts1.Close()
	drainClose(t, srv1)

	srv2 := newTestServer(t, Config{Dir: dir, Workers: 1})
	defer drainClose(t, srv2)
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp, got := post(t, ts2.Client(), ts2.URL+"/v1/runs", spec, "")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("restart repost: status %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if string(got) != string(want) {
		t.Fatalf("restart body diverged:\n got %s\nwant %s", got, want)
	}
	if runs := srv2.reg.Get("service.runs"); runs != 0 {
		t.Errorf("restart re-simulated %d times, want 0", runs)
	}
	if hits := srv2.reg.Get("service.cache.disk_hits"); hits != 1 {
		t.Errorf("disk_hits = %d, want 1", hits)
	}
	// Second request hits RAM, not disk again.
	post(t, ts2.Client(), ts2.URL+"/v1/runs", spec, "")
	if hits := srv2.reg.Get("service.cache.disk_hits"); hits != 1 {
		t.Errorf("disk_hits after RAM-warm repeat = %d, want 1", hits)
	}
}

// TestStaleEpochEntryResimulated: an entry an earlier simulator stored —
// written before entries carried a behaviour epoch (gmstore1), or under an
// older epoch — is CRC-clean and re-hashes to its address, yet a restarted
// server must not serve it: it is quarantined, the spec simulated again, and
// the fresh bytes served and stored in its place.
func TestStaleEpochEntryResimulated(t *testing.T) {
	spec := Spec{Nodes: 4, Iters: 10, Warmup: 2}
	hash, fresh := execJSON(t, spec)
	// What the older simulator returned: the same spec, other numbers.
	stale := Entry{Result: []byte(strings.Replace(string(fresh), `"barriers":`, `"barriers":9`, 1)), Trace: []byte(`{"traceEvents":[]}`)}
	if string(stale.Result) == string(fresh) {
		t.Fatal("stale result is the fresh one")
	}
	for name, data := range map[string][]byte{
		"gmstore1": append(fmt.Appendf(nil, "gmstore1 %s %d %d %08x %08x\n", hash, len(stale.Result), len(stale.Trace),
			crc32.ChecksumIEEE(stale.Result), crc32.ChecksumIEEE(stale.Trace)), append(stale.Result, stale.Trace...)...),
		"older-epoch": encodeEntryAt(hash, experiments.BehaviourEpoch-1, stale),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "store", hash[:2], hash)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			srv := newTestServer(t, Config{Dir: dir, Workers: 1})
			defer drainClose(t, srv)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			resp, got := post(t, ts.Client(), ts.URL+"/v1/runs", spec, "")
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
				t.Fatalf("status %d, X-Cache %q; want a re-simulated miss", resp.StatusCode, resp.Header.Get("X-Cache"))
			}
			if string(got) != string(fresh) {
				t.Fatalf("served\n%s\nwant the fresh result\n%s", got, fresh)
			}
			if runs := srv.reg.Get("service.runs"); runs != 1 {
				t.Errorf("service.runs = %d, want 1", runs)
			}
			if _, _, _, q := srv.store.Stats(); q != 1 {
				t.Errorf("quarantined = %d, want 1", q)
			}
			if e, ok := srv.store.Get(hash); !ok || string(e.Result) != string(fresh) {
				t.Error("the slot does not hold the fresh result")
			}
		})
	}
}

// TestStoreWriteFailureLeavesAcceptPending: done must imply stored. A run
// whose store write fails still answers its client (from RAM) and is
// counted, but its accept stays pending in the journal, so the next start
// re-simulates the job and stores it. The write is made to fail with a
// regular file where the entry's directory belongs — ENOTDIR from MkdirAll
// whoever runs the test, where permission bits would not stop root.
func TestStoreWriteFailureLeavesAcceptPending(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Nodes: 4, Iters: 10, Warmup: 2}
	hash, want := execJSON(t, spec)
	blocker := filepath.Join(dir, "store", hash[:2])
	if err := os.MkdirAll(filepath.Dir(blocker), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	srv1 := newTestServer(t, Config{Dir: dir, Workers: 1})
	ts1 := httptest.NewServer(srv1.Handler())
	resp, got := post(t, ts1.Client(), ts1.URL+"/v1/runs", spec, "")
	if resp.StatusCode != http.StatusOK || string(got) != string(want) {
		t.Fatalf("run with a failing store: %d %s, want 200 %s", resp.StatusCode, got, want)
	}
	if n := srv1.reg.Get("service.store.put_errors"); n != 1 {
		t.Errorf("store.put_errors = %d, want 1", n)
	}
	ts1.Close()
	drainClose(t, srv1)

	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	srv2 := newTestServer(t, Config{Dir: dir, Workers: 1})
	if n := srv2.reg.Get("service.journal.replayed"); n != 1 {
		t.Errorf("journal.replayed = %d, want 1: the unstored job was journaled done", n)
	}
	drainClose(t, srv2) // runs the replayed job to completion
	if n := srv2.reg.Get("service.jobs_done"); n != 1 {
		t.Errorf("jobs_done after replay = %d, want 1", n)
	}
	if _, ok := srv2.store.Get(hash); !ok {
		t.Error("replayed job's result did not reach the store")
	}
}

// fakeOutcome fabricates a marshalable outcome for executor-hook tests.
func fakeOutcome(hash string) Outcome {
	return Outcome{Result: Result{Hash: hash, MeanMicros: 1}}
}

// TestDeadlineDeadLetters: a job that outlives its deadline is moved to
// the dead-letter list (freeing the worker), exposed on /v1/deadletter,
// and — because determinism makes any result valid forever — its late
// result is still banked when the stray run eventually finishes.
func TestDeadlineDeadLetters(t *testing.T) {
	release, banked := make(chan struct{}), make(chan struct{})
	srv := newTestServer(t, Config{
		Workers:      1,
		DeadlineBase: 30 * time.Millisecond,
		exec: func(s Spec) (Outcome, error) {
			<-release
			hash, _ := s.Hash()
			return fakeOutcome(hash), nil
		},
		lateBanked: func() { close(banked) },
	})
	// Drain is safe even while the stray run is blocked: the worker slot
	// was freed when the job dead-lettered.
	defer drainClose(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := Spec{Nodes: 4, Iters: 10, Warmup: 2}
	resp, b := post(t, ts.Client(), ts.URL+"/v1/runs?async=1", spec, "slow")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, b)
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}

	if st := awaitJob(t, srv, ts, st.ID); st.Status != JobDeadLettered {
		t.Fatalf("job ended %s, want dead-lettered", st.Status)
	}
	var letters struct {
		DeadLetter []DeadLetter `json:"deadletter"`
	}
	r, err := ts.Client().Get(ts.URL + "/v1/deadletter")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(r.Body).Decode(&letters)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(letters.DeadLetter) != 1 {
		t.Fatalf("dead letters = %+v, want the one job", letters.DeadLetter)
	}
	dl := letters.DeadLetter[0]
	if dl.ID != st.ID || dl.Hash != st.Hash || dl.Key != "slow" {
		t.Fatalf("dead letter %+v does not match job %s", dl, st.ID)
	}
	if dl.Reason == "" || dl.Attempts != 1 {
		t.Errorf("dead letter lacks reason/attempts: %+v", dl)
	}
	if got := srv.reg.Get("service.jobs_deadlettered"); got != 1 {
		t.Errorf("jobs_deadlettered = %d, want 1", got)
	}

	// The stray run's late result is still banked once it finishes.
	close(release)
	select {
	case <-banked:
	case <-time.After(10 * time.Second):
		t.Fatal("late result never banked")
	}
	if got := srv.reg.Get("service.deadline_late_results"); got != 1 {
		t.Errorf("deadline_late_results = %d, want 1", got)
	}
	if _, ok := srv.cache.Get(st.Hash); !ok {
		t.Error("late result not in the cache")
	}
}

// TestPanicRetryAndExhaustion: one panic is retried and can succeed; a
// job that panics on both of its attempts is dead-lettered, not retried
// forever.
func TestPanicRetryAndExhaustion(t *testing.T) {
	var calls int
	srv := newTestServer(t, Config{
		Workers: 1,
		exec: func(s Spec) (Outcome, error) {
			calls++
			if s.Nodes == 7 { // the always-poisoned spec
				panic("poisoned spec")
			}
			if calls == 1 {
				panic("transient firmware bug")
			}
			hash, _ := s.Hash()
			return fakeOutcome(hash), nil
		},
	})
	defer drainClose(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// First spec panics once, then the retry succeeds.
	resp, b := post(t, ts.Client(), ts.URL+"/v1/runs", Spec{Nodes: 4, Iters: 10, Warmup: 2}, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retried job failed: %d %s", resp.StatusCode, b)
	}
	if got := srv.reg.Get("service.jobs_retried"); got != 1 {
		t.Errorf("jobs_retried = %d, want 1", got)
	}

	// The poisoned spec panics on every attempt: dead-lettered after two.
	resp, b = post(t, ts.Client(), ts.URL+"/v1/runs", Spec{Nodes: 7, Iters: 10, Warmup: 2}, "")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoned job: status %d body %s, want 500", resp.StatusCode, b)
	}
	var letters struct {
		DeadLetter []DeadLetter `json:"deadletter"`
	}
	r, err := ts.Client().Get(ts.URL + "/v1/deadletter")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r.Body).Decode(&letters); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(letters.DeadLetter) != 1 || letters.DeadLetter[0].Attempts != 2 {
		t.Fatalf("dead letters %+v, want one with 2 attempts", letters.DeadLetter)
	}
}

// TestSimulatedProcessPanicIsDeadLettered: the panic happens inside a
// simulated process, mid-barrier, not in the executor's own frame. It still
// surfaces in the executor (sim re-raises it in whoever drives the event
// loop), so safeCall catches it, the job is retried and then dead-lettered,
// and the server keeps serving.
func TestSimulatedProcessPanicIsDeadLettered(t *testing.T) {
	srv := newTestServer(t, Config{
		Workers: 1,
		exec: func(Spec) (Outcome, error) {
			s, err := experiments.NewSession(cluster.DefaultConfig(4))
			if err != nil {
				return Outcome{}, err
			}
			defer s.Close()
			g := core.UniformGroup(4, 2)
			s.SpawnAll(func(p *host.Process, comm *core.Comm) error {
				if p.Rank() == 2 {
					p.Compute(5 * sim.Microsecond)
					panic("rank 2 hit a model bug")
				}
				return comm.Barrier(p, mcp.PE, g, p.Rank(), 0)
			})
			return Outcome{}, s.Run()
		},
	})
	defer drainClose(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, b := post(t, ts.Client(), ts.URL+"/v1/runs", Spec{Nodes: 4, Iters: 10, Warmup: 2}, "")
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(b), "rank 2 hit a model bug") {
		t.Fatalf("job with a panicking rank: status %d body %s, want 500 naming the panic", resp.StatusCode, b)
	}
	if got := srv.reg.Get("service.jobs_retried"); got != 1 {
		t.Errorf("jobs_retried = %d, want 1", got)
	}
	var letters struct {
		DeadLetter []DeadLetter `json:"deadletter"`
	}
	r, err := ts.Client().Get(ts.URL + "/v1/deadletter")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r.Body).Decode(&letters); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(letters.DeadLetter) != 1 || letters.DeadLetter[0].Attempts != 2 {
		t.Fatalf("dead letters %+v, want one with 2 attempts", letters.DeadLetter)
	}
	r, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Errorf("/healthz after the dead letter: %d", r.StatusCode)
	}
}

// TestCostAdmission: admission sheds load by estimated cost, not just
// queue slots — a spec whose estimate overflows the outstanding budget is
// rejected with 429 even though slot-wise the queue has room.
func TestCostAdmission(t *testing.T) {
	release := make(chan struct{})
	small := Spec{Nodes: 4, Iters: 10, Warmup: 2}  // cost 4*12*4 = 192
	medium := Spec{Nodes: 5, Iters: 10, Warmup: 2} // cost 5*12*4 = 240
	canonSmall, err := small.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 32,
		CostBudget: EstimateCost(canonSmall) + 10,
		exec: func(s Spec) (Outcome, error) {
			<-release
			hash, _ := s.Hash()
			return fakeOutcome(hash), nil
		},
	})
	defer func() {
		close(release)
		drainClose(t, srv)
	}()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, b := post(t, ts.Client(), ts.URL+"/v1/runs?async=1", small, "a")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("small submit: %d %s", resp.StatusCode, b)
	}
	resp, b = post(t, ts.Client(), ts.URL+"/v1/runs?async=1", medium, "b")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget submit: status %d body %s, want 429", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("cost rejection lacks Retry-After")
	}
	if got := srv.reg.Get("service.rejected_cost"); got != 1 {
		t.Errorf("rejected_cost = %d, want 1", got)
	}
}
