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

// awaitJob waits for job id to end — for its done channel to close, not by
// polling — and returns its status as GET /v1/runs/{id} serves it.
func awaitJob(t *testing.T, srv *Server, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	srv.mu.Lock()
	j := srv.jobs[id]
	srv.mu.Unlock()
	if j == nil {
		t.Fatalf("job %s unknown to the server", id)
	}
	select {
	case <-j.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s never ended", id)
	}
	r, err := ts.Client().Get(ts.URL + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("job %s: status %d", id, r.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// post submits a spec and returns the response.
func post(t *testing.T, client *http.Client, url string, spec Spec, key string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return postBody(t, client, url, body, key)
}

// postBody submits raw request bytes and returns the response.
func postBody(t *testing.T, client *http.Client, url string, body []byte, key string) (*http.Response, []byte) {
	t.Helper()
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

	if st = awaitJob(t, srv, ts, st.ID); st.Status != JobDone {
		t.Fatalf("job ended %s: %s", st.Status, st.Error)
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
	// The hog's executor holds the single worker until the test is done:
	// every submit below lands while it owns the worker, however fast or
	// loaded the machine, so the queue cannot drain and serve the final
	// duplicate as a 200 cache hit instead of coalescing it. It closes
	// started once it has the worker, before it blocks.
	release, started := make(chan struct{}), make(chan struct{})
	srv := newTestServer(t, Config{Workers: 1, QueueDepth: 2, ClientDepth: 1, RetryAfterSeconds: 7,
		exec: func(s Spec) (Outcome, error) {
			if s.Nodes == 8 {
				close(started)
				<-release
			}
			return echoExec(s)
		}})
	defer srv.Drain(context.Background())
	defer close(release)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the single worker with the gated job.
	slow := Spec{Nodes: 8, Iters: 5, Warmup: 2}
	resp, b := post(t, ts.Client(), ts.URL+"/v1/runs?async=1", slow, "hog")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("slow submit: %d %s", resp.StatusCode, b)
	}
	<-started // nextJob counted the job running before exec ran
	srv.mu.Lock()
	running := srv.running
	srv.mu.Unlock()
	if running != 1 {
		t.Fatalf("%d jobs running once the slow job started, want 1", running)
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

// echoExec is a test executor whose result is a pure function of the
// canonical spec, so tests that only need the request path run instantly.
func echoExec(s Spec) (Outcome, error) {
	hash, err := s.Hash()
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Result: Result{Spec: s, Hash: hash, MeanMicros: 1}}, nil
}

// TestSubmitBodyIndex: a byte-identical repeat is answered by the body
// index with the full path's exact reply; a differently spelled equivalent
// spec misses the index, is answered by the full path from the same entry,
// and is indexed too.
func TestSubmitBodyIndex(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, exec: echoExec})
	defer drainClose(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/runs"

	canonical := []byte(`{"nodes":16,"fault_plan":"flap","seed":7,"warmup":5,"iters":10}`)
	resp, want := postBody(t, ts.Client(), url, canonical, "")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("cold submit: %d, X-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), want)
	}
	if _, ok := srv.cache.bodies[string(canonical)]; !ok {
		t.Fatal("a finished sync job's body was not indexed")
	}
	spellings := [][]byte{
		canonical,
		[]byte(`{"iters":10,"warmup":5,"seed":7,"fault_plan":"flap","nodes":16}`),
		[]byte(`{"Nodes":16,"FAULT_PLAN":" Flap ","Seed":7,"Warmup":5,"Iters":10}`),
		[]byte("{\n  \"nodes\": 16,\n  \"fault_plan\": \"flap\",\n  \"seed\": 7,\n  \"warmup\": 5,\n  \"iters\": 10\n}\n"),
		[]byte(`{"nodes":16,"nic":"LANai 4.3","fault_plan":"flap","seed":7,"warmup":5,"iters":10}`),
	}
	for i, body := range spellings {
		_, indexed := srv.cache.bodies[string(body)]
		if indexed != (i == 0) {
			t.Fatalf("spelling %d indexed %v before its first submit", i, indexed)
		}
		var first http.Header
		for round := 0; round < 2; round++ {
			hits, misses, _ := srv.cache.Stats()
			resp, b := postBody(t, ts.Client(), url, body, "")
			if resp.StatusCode != http.StatusOK || string(b) != string(want) {
				t.Fatalf("spelling %d round %d: %d %s, want the cold reply", i, round, resp.StatusCode, b)
			}
			if h, m, _ := srv.cache.Stats(); h != hits+1 || m != misses {
				t.Errorf("spelling %d round %d counted %d hits and %d misses, want 1 and 0", i, round, h-hits, m-misses)
			}
			if round == 1 {
				for _, k := range []string{"Content-Type", "X-Cache", "X-Job-Id"} {
					if got := resp.Header.Values(k); fmt.Sprint(got) != fmt.Sprint(first.Values(k)) {
						t.Errorf("spelling %d: %s %q from the index, %q from the full path", i, k, got, first.Values(k))
					}
				}
			}
			first = resp.Header
			if _, ok := srv.cache.bodies[string(body)]; !ok {
				t.Fatalf("spelling %d not indexed after a hit", i)
			}
		}
		if first.Get("X-Cache") != "hit" {
			t.Errorf("spelling %d: X-Cache %q, want hit", i, first.Get("X-Cache"))
		}
	}
	if runs := counter(t, srv, "service.runs"); runs != 1 {
		t.Errorf("%d runs for one spec in %d spellings, want 1", runs, len(spellings))
	}
	if got, want := srv.cache.Len(), 1; got != want {
		t.Errorf("%d cache entries, want %d", got, want)
	}
}

// TestSubmitBodyLimit: a body of exactly the limit is read and served; one
// byte over is 413 naming the limit, not a JSON error.
func TestSubmitBodyLimit(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, exec: echoExec})
	defer drainClose(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := []byte(`{"nodes":4}`)
	padded := func(n int) []byte { return append(bytes.Repeat([]byte(" "), n-len(spec)), spec...) }
	resp, b := postBody(t, ts.Client(), ts.URL+"/v1/runs", padded(maxSpecBytes), "")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("a %d-byte body: %d %s, want 200", maxSpecBytes, resp.StatusCode, b)
	}
	resp, b = postBody(t, ts.Client(), ts.URL+"/v1/runs", padded(maxSpecBytes+1), "")
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !bytes.Contains(b, []byte(fmt.Sprint(maxSpecBytes))) {
		t.Errorf("a %d-byte body: %d %s, want 413 naming the %d-byte limit", maxSpecBytes+1, resp.StatusCode, b, maxSpecBytes)
	}
}

// getScenarios fetches the chaos fleet batch.
func getScenarios(t *testing.T, client *http.Client, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Get(url + "/v1/scenarios")
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

// TestScenariosCachedOnce: GET /v1/scenarios runs the fleet on its first
// request and serves it cached after; a repeat is a hit with the same body.
func TestScenariosCachedOnce(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1})
	defer drainClose(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, cold := getScenarios(t, ts.Client(), ts.URL)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("cold: %d, X-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), cold)
	}
	var cells []ScenarioCell
	if err := json.Unmarshal(cold, &cells); err != nil || len(cells) == 0 {
		t.Fatalf("cold body is not a fleet (%v): %s", err, cold)
	}
	if runs := counter(t, srv, "service.fleet_runs"); runs != 1 {
		t.Errorf("fleet_runs %d after a cold request, want 1", runs)
	}
	resp, warm := getScenarios(t, ts.Client(), ts.URL)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" || string(warm) != string(cold) {
		t.Errorf("repeat: %d, X-Cache %q, body equal %v; want 200, hit, equal",
			resp.StatusCode, resp.Header.Get("X-Cache"), string(warm) == string(cold))
	}
	if runs := counter(t, srv, "service.fleet_runs"); runs != 1 {
		t.Errorf("fleet_runs %d after a repeat, want 1", runs)
	}
}

// TestScenariosConcurrentColdRunOnce: concurrent cold requests run the
// fleet once; the others wait for it and are served from the cache.
func TestScenariosConcurrentColdRunOnce(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1})
	defer drainClose(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 8
	bodies := make([]string, n)
	xcache := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := getScenarios(t, ts.Client(), ts.URL)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: %d %s", i, resp.StatusCode, b)
			}
			bodies[i], xcache[i] = string(b), resp.Header.Get("X-Cache")
		}(i)
	}
	wg.Wait()
	if runs := counter(t, srv, "service.fleet_runs"); runs != 1 {
		t.Errorf("%d concurrent cold requests ran the fleet %d times, want 1", n, runs)
	}
	misses := 0
	for i := range bodies {
		if bodies[i] != bodies[0] {
			t.Errorf("request %d's body differs from request 0's", i)
		}
		if xcache[i] == "miss" {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d of %d replies are X-Cache miss, want 1", misses, n)
	}
}

// TestScenariosDrainingCold: a draining server with no fleet cached
// refuses to start one.
func TestScenariosDrainingCold(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1})
	defer drainClose(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	srv.BeginDrain()
	resp, b := getScenarios(t, ts.Client(), ts.URL)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("cold while draining: %d %s, want 503", resp.StatusCode, b)
	}
	if runs := counter(t, srv, "service.fleet_runs"); runs != 0 {
		t.Errorf("fleet_runs %d while draining, want 0", runs)
	}
}
