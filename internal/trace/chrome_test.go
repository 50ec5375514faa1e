package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gmsim/internal/mcp"
)

// chromeCheck is the schema the export must satisfy: the subset of the
// Chrome trace-event format Perfetto requires.
type chromeCheck struct {
	TraceEvents []struct {
		Name  string          `json:"name"`
		Ph    string          `json:"ph"`
		Ts    *float64        `json:"ts"`
		Dur   float64         `json:"dur"`
		Pid   *int            `json:"pid"`
		Tid   *int            `json:"tid"`
		Cat   string          `json:"cat"`
		Scope string          `json:"s"`
		Args  json.RawMessage `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestWriteChromeSchema(t *testing.T) {
	rec, _ := runFullStackBarrier(t, 4, mcp.GB, 2)
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var got chromeCheck
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if got.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", got.DisplayTimeUnit)
	}
	if len(got.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	var spans, instants, meta int
	cats := map[string]bool{}
	procs := map[int]bool{}
	for i, e := range got.TraceEvents {
		if e.Name == "" {
			t.Fatalf("event %d has no name", i)
		}
		if e.Pid == nil || e.Tid == nil {
			t.Fatalf("event %d missing pid/tid", i)
		}
		switch e.Ph {
		case "X":
			spans++
			if e.Ts == nil || *e.Ts < 0 || e.Dur <= 0 {
				t.Fatalf("span %d has bad ts/dur: %+v", i, e)
			}
			cats[e.Cat] = true
			procs[*e.Pid] = true
		case "i":
			instants++
			if e.Ts == nil || e.Scope != "t" {
				t.Fatalf("instant %d malformed: %+v", i, e)
			}
		case "M":
			meta++
			if e.Name != "process_name" && e.Name != "thread_name" {
				t.Fatalf("metadata %d named %q", i, e.Name)
			}
			if len(e.Args) == 0 {
				t.Fatalf("metadata %d has no args", i)
			}
		default:
			t.Fatalf("event %d has unknown phase %q", i, e.Ph)
		}
	}
	if spans == 0 || instants == 0 || meta == 0 {
		t.Fatalf("export incomplete: %d spans, %d instants, %d metadata", spans, instants, meta)
	}
	// Every layer shows up: host, firmware, DMA and wire categories, the
	// wire pseudo-process, and one process per node.
	for _, want := range []string{"HostPost", "HostDone", "NICProc", "DMA", "Wire"} {
		if !cats[want] {
			t.Fatalf("no %s spans in export (cats %v)", want, cats)
		}
	}
	if !procs[wirePID] {
		t.Fatal("no wire process in export")
	}
	for node := 0; node < 4; node++ {
		if !procs[node+1] {
			t.Fatalf("node %d missing from export", node)
		}
	}
}

// A fabric-only recorder still exports: instants and metadata, no spans.
func TestWriteChromeFabricOnly(t *testing.T) {
	rec, _ := runTracedBarrier(t, 2)
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var got chromeCheck
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	for _, e := range got.TraceEvents {
		if e.Ph == "X" {
			t.Fatal("fabric-only export contains spans")
		}
	}
	if len(got.TraceEvents) == 0 {
		t.Fatal("no events exported")
	}
}

// TestChromeGoldenGB4 pins every byte of one small export: a 4-node NIC
// gather-and-broadcast (dim 2) barrier. The exporter's output is stored and
// served content-addressed, so its bytes are behaviour. Regenerate
// deliberately with:
//
//	go test ./internal/trace -run TestChromeGoldenGB4 -update
func TestChromeGoldenGB4(t *testing.T) {
	rec, _ := runFullStackBarrier(t, 4, mcp.GB, 2)
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	path := filepath.Join("testdata", "chrome_gb4_dim2.json")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, buf.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Chrome export drifted from golden %s:\n%s", path, diffLines(chromeLines(buf.Bytes()), chromeLines(want)))
	}
}

// chromeLines breaks an export (one long line) at event boundaries so
// diffLines can point at the event that moved.
func chromeLines(b []byte) string {
	return strings.ReplaceAll(string(b), "},{", "},\n{")
}
