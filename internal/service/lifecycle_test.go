package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTerminalPathsReleaseAdmission: every way a job can end — done,
// failed, deadline dead-letter, panic then retry then done, panic
// dead-letter — hands back what admission took. After each, /metrics reads
// no running job, no outstanding cost and an empty queue, and the same spec
// submitted again is a new job rather than a coalesce onto the finished one.
// The RAM cache is off so a finished result cannot answer the resubmit.
func TestTerminalPathsReleaseAdmission(t *testing.T) {
	var mu sync.Mutex
	calls := make(map[int]int) // executor calls per spec, keyed by node count
	release := make(chan struct{})
	defer close(release)
	srv := newTestServer(t, Config{
		Workers:      1,
		CacheBytes:   -1,
		DeadlineBase: 200 * time.Millisecond,
		exec: func(s Spec) (Outcome, error) {
			mu.Lock()
			calls[s.Nodes]++
			n := calls[s.Nodes]
			mu.Unlock()
			switch s.Nodes {
			case 5:
				return Outcome{}, errors.New("model does not build")
			case 6:
				<-release // outlives its deadline
			case 7:
				if n%2 == 1 {
					panic("transient model bug")
				}
			case 8:
				panic("poisoned spec")
			}
			hash, _ := s.Hash()
			return fakeOutcome(hash), nil
		},
	})
	defer drainClose(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	submit := func(spec Spec) JobStatus {
		t.Helper()
		resp, b := post(t, ts.Client(), ts.URL+"/v1/runs?async=1", spec, "k")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %+v: %d %s", spec, resp.StatusCode, b)
		}
		var st JobStatus
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	settle := func(id string) JobStatus {
		t.Helper()
		return awaitJob(t, srv, ts, id)
	}
	gauges := func() map[string]int64 {
		t.Helper()
		r, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]int64)
		for _, line := range strings.Split(string(body), "\n") {
			f := strings.Fields(line)
			if len(f) != 2 {
				continue
			}
			if v, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				out[f[0]] = v
			}
		}
		return out
	}

	for _, c := range []struct {
		name  string
		nodes int
		want  string
	}{
		{"done", 4, JobDone},
		{"failed", 5, JobFailed},
		{"deadline", 6, JobDeadLettered},
		{"panic-retry-done", 7, JobDone},
		{"panic-deadletter", 8, JobDeadLettered},
	} {
		spec := Spec{Nodes: c.nodes, Iters: 10, Warmup: 2}
		first := submit(spec)
		if st := settle(first.ID); st.Status != c.want {
			t.Fatalf("%s: job ended %s (%s), want %s", c.name, st.Status, st.Error, c.want)
		}
		g := gauges()
		for _, name := range []string{"service.jobs_running", "service.cost_outstanding", "service.queue_depth"} {
			if v, ok := g[name]; !ok || v != 0 {
				t.Errorf("%s: %s = %d (present %v), want 0", c.name, name, v, ok)
			}
		}
		again := submit(spec)
		if again.ID == first.ID || again.Coalesced != 0 {
			t.Errorf("%s: resubmit joined the finished job %s (got %s, coalesced %d)", c.name, first.ID, again.ID, again.Coalesced)
		}
		if st := settle(again.ID); st.Status != c.want {
			t.Errorf("%s: resubmitted job ended %s (%s), want %s", c.name, st.Status, st.Error, c.want)
		}
	}
}
