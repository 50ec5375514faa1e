package service

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestCostEstimateSaturates: an estimate too large for an int64 saturates
// instead of wrapping to a small number that admission would let through,
// the admission check does not wrap a saturated estimate back under the
// budget, and a legitimately large estimate converts to a long deadline
// rather than a negative one that turns deadlines off. Estimates and
// deadlines that fit keep their values.
func TestCostEstimateSaturates(t *testing.T) {
	spec := func(body string) Spec {
		t.Helper()
		var s Spec
		if err := json.Unmarshal([]byte(body), &s); err != nil {
			t.Fatal(err)
		}
		return s
	}
	canon := func(body string) Spec {
		t.Helper()
		c, err := spec(body).Canonicalize()
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		return c
	}
	const huge = `{"nodes":16,"fault_plan":"flap","iters":1152921504606846976}` // 16·2^60·6 wraps
	for _, body := range []string{
		huge,
		`{"nodes":16,"iters":9223372036854775807}`, // warmup + iters wraps
		`{"nodes":32,"topo":"clos2","radix":8,"iters":288230376151711744}`,
	} {
		if got := EstimateCost(canon(body)); got != math.MaxInt64 {
			t.Errorf("%s: estimate %d, want it saturated at %d", body, got, int64(math.MaxInt64))
		}
	}
	small := `{"nodes":4,"iters":10,"warmup":2}`
	if got := EstimateCost(canon(small)); got != 4*12*4 {
		t.Errorf("small estimate %d, want %d", got, 4*12*4)
	}
	// 1024 nodes × (5 + 2 000 000) iterations × 8, plus 1024²/4.
	const bigCost = 16_384_303_104
	if got := EstimateCost(canon(`{"nodes":1024,"topo":"clos3","fault_plan":"crash","iters":2000000}`)); got != bigCost {
		t.Fatalf("1024-node clos3 crash estimate %d, want %d", got, int64(bigCost))
	}

	release := make(chan struct{})
	srv := newTestServer(t, Config{
		Workers: 1,
		exec: func(s Spec) (Outcome, error) {
			<-release
			hash, _ := s.Hash()
			return fakeOutcome(hash), nil
		},
	})
	defer drainClose(t, srv)
	defer close(release)
	// 60 s + 16 384 303 104 events at 200 000 events/sec.
	if got, want := srv.deadlineFor(bigCost), DefaultDeadlineBase+81_921_515_520*time.Microsecond; got != want {
		t.Errorf("deadline for cost %d: %v, want %v", int64(bigCost), got, want)
	}
	if got := srv.deadlineFor(math.MaxInt64); got < 1000*time.Hour {
		t.Errorf("deadline for a saturated cost: %v, want the longest Duration", got)
	}

	// With a job outstanding, a saturated estimate must still be refused.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if resp, b := post(t, ts.Client(), ts.URL+"/v1/runs?async=1", spec(small), "a"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("small spec: status %d body %s, want 202", resp.StatusCode, b)
	}
	if resp, b := post(t, ts.Client(), ts.URL+"/v1/runs?async=1", spec(huge), "b"); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("saturated spec: status %d body %s, want 429", resp.StatusCode, b)
	}
}
