package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"strings"
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
// server would have to re-simulate (and experiments.BehaviourEpoch must move
// with a deliberate re-pin).
func TestChromeCellsPinned(t *testing.T) {
	for _, c := range []struct {
		plan   string
		length int
		sum    string
	}{
		{service.PlanNone, 514361, "de2cdbd7c6fdb5be80528f5b496dc4c5312a924da93932af80e172992c3750b5"},
		{service.PlanFlap, 933763, "b52e75b15b478d0269ae769941f1b9dc2d51a4d025bd11169169cf33a59fea45"},
		{service.PlanCrash, 1058085, "7b4575d9572638a5694e52f8c5211dc0830bdbcade7c04353e4c6ffea4daecdb"},
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

// TestChromeMatchesOracle compares WriteChrome with the reflection encoder
// it replaced, byte for byte, over recordings that reach every branch a
// simulation can: packets crossing two switches (two hop events each),
// dropped packets (a reason in the name), corrupted and truncated wire
// images ([]byte payloads the recorder decodes for their kind), a link flap (fault events
// tied to no packet, on the 0->0 thread), crashes, host-level barriers
// (HostSend / HostRecv spans) and a fabric-only recorder (no spans).
func TestChromeMatchesOracle(t *testing.T) {
	cells := map[string]*trace.Recorder{}
	for _, plan := range []string{service.PlanNone, service.PlanFlap, service.PlanCorrupt, service.PlanChaos, service.PlanCrash} {
		cells["nic-pe16 "+plan] = cellRecorder(t, nicPE16(plan))
	}
	cells["gb twoswitch"] = cellRecorder(t, service.Spec{Topo: "twoswitch", Nodes: 12, Alg: "gb", Dim: 3, TopoAware: true, Iters: 3})
	cells["host pe clos2 flap"] = cellRecorder(t, service.Spec{Topo: "clos2", Radix: 8, Nodes: 16, Level: "host", FaultPlan: service.PlanFlap, Iters: 3})
	fabricOnly, _ := trace.RunTracedBarrier(t, 4)
	cells["fabric only"] = fabricOnly

	var twoHops, dropReason, corrupt, noPacketFault bool
	for name, rec := range cells {
		got := trace.ExportBytes(t, rec.WriteChrome)
		want := trace.ExportBytes(t, func(w io.Writer) error { return trace.ChromeOracle(rec, w) })
		if !bytes.Equal(got, want) {
			t.Errorf("%s: WriteChrome differs from the reflection encoder (%d vs %d bytes)", name, len(got), len(want))
		}
		for _, h := range rec.PacketHopCounts() {
			twoHops = twoHops || h.Hops >= 2
		}
		for _, e := range rec.Events() {
			dropReason = dropReason || e.Kind == trace.Drop && e.Reason != ""
			corrupt = corrupt || e.Kind == trace.Fault && strings.HasPrefix(e.Reason, "corrupt")
			noPacketFault = noPacketFault || e.Kind == trace.Fault && e.Size == 0 && e.Src == 0 && e.Dst == 0
		}
	}
	if fabricOnly.Phases() != nil {
		t.Error("the fabric-only cell has a phase recorder")
	}
	if !twoHops || !dropReason || !corrupt || !noPacketFault {
		t.Errorf("matrix lost a branch: two-hop packet %v, drop with reason %v, corrupted wire image %v, fault without packet %v",
			twoHops, dropReason, corrupt, noPacketFault)
	}
}

// BenchmarkChromeExport exports the svc benchmark's cell (16 nodes, NIC PE,
// one link flap, 10 timed barriers) with the reflection encoder and with
// WriteChrome.
func BenchmarkChromeExport(b *testing.B) {
	rec := cellRecorder(b, nicPE16(service.PlanFlap))
	for _, enc := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"oracle", func(w io.Writer) error { return trace.ChromeOracle(rec, w) }},
		{"append", rec.WriteChrome},
	} {
		b.Run(enc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := enc.write(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChromeExportLarge exports an observed 256-node cell (a
// three-level fat tree, NIC PE, three timed barriers): the exporter's
// node and wire-thread tables hold 16 times the nodes of the svc cell's.
func BenchmarkChromeExportLarge(b *testing.B) {
	rec := cellRecorder(b, service.Spec{Topo: "clos3", Nodes: 256, Seed: 7, Warmup: 1, Iters: 3})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rec.WriteChrome(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
