package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// reference is the pinned side of a whole-stack differential: for every cell,
// the events its reference run executed and a digest of what the run left
// behind (its summary or error, and every NIC's firmware counters). A
// differential whose reference form no longer exists in the code holds its
// runs to the outcomes that form produced when it did. Rewrite the digests on
// purpose with -update-scenarios, after a deliberate behaviour change; the
// events a pinned cell's reference run executed are kept, since no run can
// reproduce them now.
type reference struct {
	path  string
	want  map[string]pinnedCell
	lines []string // what -update-scenarios writes, in check order
}

// pinnedCell is one cell's line of a reference file.
type pinnedCell struct {
	events int64
	digest string
}

// loadReference reads testdata/<name>.golden; under -update-scenarios the
// file is rewritten when the test ends.
func loadReference(t *testing.T, name string) *reference {
	t.Helper()
	ref := &reference{path: filepath.Join("testdata", name+".golden"), want: map[string]pinnedCell{}}
	if *updateScenarios {
		t.Cleanup(func() {
			if err := os.WriteFile(ref.path, []byte(strings.Join(ref.lines, "")), 0o644); err != nil {
				t.Error(err)
			}
		})
	}
	f, err := os.Open(ref.path)
	if err != nil {
		if *updateScenarios && os.IsNotExist(err) {
			return ref
		}
		t.Fatalf("%v (regenerate with -update-scenarios)", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// events <TAB> digest <TAB> cell
		parts := strings.SplitN(sc.Text(), "\t", 3)
		if len(parts) != 3 {
			t.Fatalf("%s: malformed line %q", ref.path, sc.Text())
		}
		events, err := strconv.ParseInt(parts[0], 10, 64)
		if err != nil {
			t.Fatalf("%s: %v", ref.path, err)
		}
		ref.want[parts[2]] = pinnedCell{events, parts[1]}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return ref
}

// digest condenses what a run left behind: the summary (or the error) and
// every NIC's firmware counters.
func (r cellRun) digest() string {
	h := sha256.New()
	if r.err != nil {
		fmt.Fprintf(h, "error: %v\n", r.err)
	} else {
		h.Write([]byte(r.out.Summary.String()))
	}
	for i, st := range r.stats {
		fmt.Fprintf(h, "%d %+v\n", i, st)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// check holds run r of cell to its pinned outcome and returns the events the
// reference run executed (under -update-scenarios, r's outcome becomes the
// pin).
func (ref *reference) check(t *testing.T, cell string, r cellRun) int64 {
	t.Helper()
	want, ok := ref.want[cell]
	if *updateScenarios {
		if !ok {
			want.events = r.work.events
		}
		ref.lines = append(ref.lines, fmt.Sprintf("%d\t%s\t%s\n", want.events, r.digest(), cell))
		return want.events
	}
	if !ok {
		t.Errorf("%s: cell %q is not pinned (regenerate with -update-scenarios)", ref.path, cell)
		return r.work.events
	}
	if got := r.digest(); got != want.digest {
		t.Errorf("%s: outcome digest %s, pinned %s; the run left\n%s", cell, got, want.digest, r.show())
	}
	return want.events
}
