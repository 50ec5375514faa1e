package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"gmsim/internal/experiments"
	"gmsim/internal/service"
	"gmsim/internal/trace"
)

// cellRecorder runs one service spec observed, the way simd executes it,
// and returns the recorder its trace is exported from. (An external test
// package: experiments imports trace.)
func cellRecorder(tb testing.TB, s service.Spec) *trace.Recorder {
	tb.Helper()
	c, err := s.Canonicalize()
	if err != nil {
		tb.Fatal(err)
	}
	espec, err := c.Experiment()
	if err != nil {
		tb.Fatal(err)
	}
	run, err := experiments.Run(espec, true)
	if err != nil {
		tb.Fatalf("%+v: %v", c, err)
	}
	return run.Rec
}

// nicPE16 is the 16-node NIC-PE cell the svc benchmark posts (seed aside),
// under the named fault plan.
func nicPE16(plan string) service.Spec {
	return service.Spec{Nodes: 16, FaultPlan: plan, Seed: 7, Warmup: 5, Iters: 10}
}

// TestChromeCellsPinned pins length and SHA-256 of the export of three
// service-sized cells: simd stores and serves these bytes under a content
// address, so an encoder change that moves one byte changes what a restarted
// server would have to re-simulate.
func TestChromeCellsPinned(t *testing.T) {
	for _, c := range []struct {
		plan   string
		length int
		sum    string
	}{
		{service.PlanNone, 512974, "744224f5e3325d0be3a6bc019162ebd83752c4ec9094a5eabf0f415fdf68f2a0"},
		{service.PlanFlap, 933763, "82472bb8a28a5eb645406af2f9a2ece911aa780d149b4dddb4e4de5846e02916"},
		{service.PlanCrash, 1056698, "fd8ab056beb37e4fa6bb478cb56d8768e2d54329c4999fee69be4e8148140ad9"},
	} {
		var buf bytes.Buffer
		if err := cellRecorder(t, nicPE16(c.plan)).WriteChrome(&buf); err != nil {
			t.Fatalf("%s: WriteChrome: %v", c.plan, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); buf.Len() != c.length || got != c.sum {
			t.Errorf("%s: export is %d bytes, sha256 %s; pinned %d bytes, %s", c.plan, buf.Len(), got, c.length, c.sum)
		}
	}
}
