package trace

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gmsim/internal/mcp"
)

var update = flag.Bool("update", false, "rewrite golden trace files")

// goldenRender flattens a full-stack recording into the pinned text form:
// every fabric event, then every phase span, in recording order.
func goldenRender(r *Recorder) string {
	var b strings.Builder
	b.WriteString("# fabric events\n")
	for _, e := range r.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	b.WriteString("# phase spans\n")
	for _, s := range r.Phases().Spans() {
		peer := ""
		if s.Peer >= 0 {
			peer = fmt.Sprintf("->%d", s.Peer)
		}
		fmt.Fprintf(&b, "%10.2fus %-8s node=%d%s %-4s %-20s +%.2fus\n",
			s.Start.Micros(), s.Phase, s.Node, peer, s.Track, r.Phases().Name(s.Label), s.Dur().Micros())
	}
	return b.String()
}

// diffLines reports the first few line-level differences between got and
// want, with one line of context, so a golden failure reads as a diff
// rather than two walls of text.
func diffLines(got, want string) string {
	g := strings.Split(got, "\n")
	w := strings.Split(want, "\n")
	var b strings.Builder
	reported := 0
	n := len(g)
	if len(w) > n {
		n = len(w)
	}
	for i := 0; i < n && reported < 5; i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl == wl {
			continue
		}
		if reported == 0 && i > 0 {
			fmt.Fprintf(&b, "  %4d   %s\n", i, g[i-1])
		}
		fmt.Fprintf(&b, "- %4d   %s\n", i+1, wl)
		fmt.Fprintf(&b, "+ %4d   %s\n", i+1, gl)
		reported++
	}
	if reported == 0 {
		return "(no line differences — trailing content?)"
	}
	fmt.Fprintf(&b, "(%d vs %d lines; first %d differing lines shown)", len(g), len(w), reported)
	return b.String()
}

// TestGoldenTraceGB16 pins the exact event and span sequence of one
// 16-node NIC-based gather-and-broadcast (dim 2) barrier. Any drift in
// firmware scheduling, host costs, fabric timing or instrumentation shows
// up as a readable diff. Regenerate deliberately with:
//
//	go test ./internal/trace -run TestGoldenTraceGB16 -update
func TestGoldenTraceGB16(t *testing.T) {
	rec, _ := runFullStackBarrier(t, 16, mcp.GB, 2)
	got := goldenRender(rec)
	path := filepath.Join("testdata", "golden_gb16_dim2.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("trace drifted from golden %s:\n%s", path, diffLines(got, string(want)))
	}
}
