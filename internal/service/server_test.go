package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// newTestServer builds a server, failing the test on config errors.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// post submits a spec and returns the response.
func post(t *testing.T, client *http.Client, url string, spec Spec, key string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func counter(t *testing.T, s *Server, name string) int64 {
	t.Helper()
	return s.reg.Get(name)
}

// TestServerEndToEnd is the acceptance test: concurrent clients posting a
// mix of novel and repeated specs all receive results byte-identical to
// serial one-shot Execute runs; repeats are served from the cache without
// re-invoking the simulator; drain finishes the queue and refuses new
// work.
func TestServerEndToEnd(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 2, QueueDepth: 32, ClientDepth: 32})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	specs := []Spec{
		{Nodes: 4, Iters: 10, Warmup: 2},
		{Nodes: 4, Alg: "gb", Dim: 3, Iters: 10, Warmup: 2},
		{Nodes: 5, Iters: 10, Warmup: 2},
		{Nodes: 4, FaultPlan: "corrupt", Iters: 10, Warmup: 2},
	}
	// Serial ground truth, computed outside the server.
	want := make([]string, len(specs))
	for i, s := range specs {
		_, b := execJSON(t, s)
		want[i] = string(b)
	}

	// Concurrent clients, three API keys, every spec submitted three times.
	var wg sync.WaitGroup
	errs := make(chan error, len(specs)*3)
	for round := 0; round < 3; round++ {
		for i, s := range specs {
			wg.Add(1)
			go func(round, i int, s Spec) {
				defer wg.Done()
				resp, b := post(t, ts.Client(), ts.URL+"/v1/runs", s, fmt.Sprintf("client-%d", round))
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("spec %d round %d: status %d: %s", i, round, resp.StatusCode, b)
					return
				}
				if string(b) != want[i] {
					errs <- fmt.Errorf("spec %d round %d: body diverged from serial run:\n got %s\nwant %s", i, round, b, want[i])
				}
			}(round, i, s)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// 12 requests over 4 distinct specs: at most 4 simulations ran (fewer
	// responses than runs would mean a coalesced wait, never a re-run).
	if runs := counter(t, srv, "service.runs"); runs > int64(len(specs)) {
		t.Errorf("%d simulations for %d distinct specs", runs, len(specs))
	}

	// A repeat is a pure cache hit: the simulator run counter must not move.
	runsBefore := counter(t, srv, "service.runs")
	resp, b := post(t, ts.Client(), ts.URL+"/v1/runs", specs[0], "")
	if resp.StatusCode != http.StatusOK || string(b) != want[0] {
		t.Fatalf("repeat: status %d body %s", resp.StatusCode, b)
	}
	if resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("repeat served with X-Cache %q, want hit", resp.Header.Get("X-Cache"))
	}
	if runs := counter(t, srv, "service.runs"); runs != runsBefore {
		t.Errorf("repeat re-simulated: runs %d -> %d", runsBefore, runs)
	}
	if hits, _, _ := srv.cache.Stats(); hits == 0 {
		t.Error("no cache hits recorded")
	}

	// A spec asking for the removed partitioned engine is a client error
	// that says so, not a serial run filed under a new hash.
	resp, b = post(t, ts.Client(), ts.URL+"/v1/runs", Spec{Topo: "clos2", Radix: 8, Nodes: 32, Partitions: 2, Iters: 5}, "")
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(b, []byte("partitioned engine was removed")) {
		t.Errorf("partitions=2 submit: status %d body %s, want 400 naming the removal", resp.StatusCode, b)
	}

	// Drain: intake refuses, queued work finishes, workers exit.
	srv.BeginDrain()
	resp, _ = post(t, ts.Client(), ts.URL+"/v1/runs", Spec{Nodes: 6, Iters: 5}, "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.WaitDrained(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestServerAsyncAndTrace: the async submit/poll flow, the job trace
// endpoint, and result retrieval by content address.
func TestServerAsyncAndTrace(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1})
	defer srv.Drain(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := Spec{Nodes: 4, Iters: 10, Warmup: 2}
	resp, b := post(t, ts.Client(), ts.URL+"/v1/runs?async=1", spec, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: status %d: %s", resp.StatusCode, b)
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Hash == "" {
		t.Fatalf("async status incomplete: %s", b)
	}

	deadline := time.Now().Add(30 * time.Second)
	for st.Status != JobDone {
		if st.Status == JobFailed {
			t.Fatalf("job failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.Status)
		}
		time.Sleep(10 * time.Millisecond)
		r, err := ts.Client().Get(ts.URL + "/v1/runs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("poll: %v: %s", err, body)
		}
	}
	_, fresh := execJSON(t, spec)
	if string(st.Result) != string(fresh) {
		t.Fatalf("async result diverged:\n got %s\nwant %s", st.Result, fresh)
	}

	r, err := ts.Client().Get(ts.URL + "/v1/runs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	trace, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d: %s", r.StatusCode, trace)
	}
	var tr struct {
		Events []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &tr); err != nil {
		t.Fatalf("trace is not Chrome JSON: %v", err)
	}
	if len(tr.Events) == 0 {
		t.Error("trace has no events")
	}

	r, err = ts.Client().Get(ts.URL + "/v1/results/" + st.Hash)
	if err != nil {
		t.Fatal(err)
	}
	byHash, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK || string(byHash) != string(fresh) {
		t.Fatalf("result by hash: status %d, body %s", r.StatusCode, byHash)
	}
}

// TestServerBackpressure: a full queue rejects with 429 + Retry-After, a
// full per-client queue likewise, and duplicate in-flight specs coalesce
// onto one job.
func TestServerBackpressure(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, QueueDepth: 2, ClientDepth: 1, RetryAfterSeconds: 7})
	defer srv.Drain(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the single worker with a slow job. The iteration count is the
	// flake margin: every submit below must land while this job still owns
	// the worker, or the queue drains and the final duplicate is served as
	// a 200 cache hit instead of coalescing — seen on loaded single-core
	// runners at 400 iterations (~0.2 s of wall time for ~50 ms of HTTP).
	slow := Spec{Nodes: 8, Iters: 4000, Warmup: 2}
	resp, b := post(t, ts.Client(), ts.URL+"/v1/runs?async=1", slow, "hog")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("slow submit: %d %s", resp.StatusCode, b)
	}
	waitRunning := time.Now().Add(10 * time.Second)
	for {
		srv.mu.Lock()
		running := srv.running
		srv.mu.Unlock()
		if running == 1 {
			break
		}
		if time.Now().After(waitRunning) {
			t.Fatal("slow job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Queue one job for client A, then hit A's per-client bound.
	resp, _ = post(t, ts.Client(), ts.URL+"/v1/runs?async=1", Spec{Nodes: 4, Iters: 5}, "A")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit: %d", resp.StatusCode)
	}
	resp, _ = post(t, ts.Client(), ts.URL+"/v1/runs?async=1", Spec{Nodes: 5, Iters: 5}, "A")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("per-client overflow: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Errorf("Retry-After %q, want 7", ra)
	}

	// A different client still has room (fairness bound is per key), and
	// fills the global queue.
	resp, _ = post(t, ts.Client(), ts.URL+"/v1/runs?async=1", Spec{Nodes: 5, Iters: 5}, "B")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("client B submit: %d", resp.StatusCode)
	}
	resp, _ = post(t, ts.Client(), ts.URL+"/v1/runs?async=1", Spec{Nodes: 6, Iters: 5}, "C")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("global overflow: status %d, want 429", resp.StatusCode)
	}

	// A duplicate of a queued spec coalesces instead of rejecting: same
	// job ID, one simulation.
	resp, b = post(t, ts.Client(), ts.URL+"/v1/runs?async=1", Spec{Nodes: 5, Iters: 5}, "C")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("coalesce submit: %d %s", resp.StatusCode, b)
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.Coalesced == 0 {
		t.Errorf("duplicate spec did not coalesce: %s", b)
	}
}
