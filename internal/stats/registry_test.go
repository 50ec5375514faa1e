package stats

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestRegistryAddSetGet(t *testing.T) {
	r := NewRegistry()
	r.Add("a", 2)
	r.Add("a", 3)
	r.Set("b", 7)
	r.Set("b", 9)
	if r.Get("a") != 5 || r.Get("b") != 9 {
		t.Fatalf("a=%d b=%d", r.Get("a"), r.Get("b"))
	}
	if r.Get("missing") != 0 {
		t.Fatal("missing counter misreported")
	}
	if got := r.Names(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("names = %v, want [a b] (Get must not create a counter)", got)
	}
}

func TestRegistryNameOrder(t *testing.T) {
	r := NewRegistry()
	r.Set("zebra", 1)
	r.Add("alpha", 1)
	r.Set("mid", 1)
	if got := r.Names(); got[0] != "zebra" || got[1] != "alpha" || got[2] != "mid" {
		t.Fatalf("insertion order lost: %v", got)
	}
	// Re-adding must not duplicate the name.
	r.Add("alpha", 1)
	if len(r.Names()) != 3 {
		t.Fatalf("names = %v", r.Names())
	}
}

// TestRegistrySnapshotDuringWrites hammers concurrent readers against
// writers: the simd service serves /metrics snapshots while simulation
// workers merge run counters in. Run under -race (CI does), any data race
// in the registry fails the build; without -race it still checks that
// snapshots are internally consistent (a counter never appears twice in
// names) and monotone for an add-only counter.
func TestRegistrySnapshotDuringWrites(t *testing.T) {
	r := NewRegistry()
	const writers, rounds = 4, 500
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			src := NewRegistry()
			src.Set("mcp.BarrierCompleted", 1)
			src.Set(fmt.Sprintf("writer.%d", w), 1)
			for i := 0; i < rounds; i++ {
				r.Add("service.runs", 1)
				r.Set(fmt.Sprintf("gauge.%d", w), int64(i))
				r.AddAll(src)
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()

	var lastRuns int64
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		snap := r.Snapshot()
		seen := map[string]bool{}
		for _, name := range snap.Names() {
			if seen[name] {
				t.Fatalf("snapshot names %q twice", name)
			}
			seen[name] = true
		}
		_ = r.Dump(false)
		if runs := snap.Get("service.runs"); runs < lastRuns {
			t.Fatalf("add-only counter went backwards: %d -> %d", lastRuns, runs)
		} else {
			lastRuns = runs
		}
	}
	if got := r.Get("service.runs"); got != writers*rounds {
		t.Fatalf("service.runs = %d, want %d", got, writers*rounds)
	}
	if got := r.Get("mcp.BarrierCompleted"); got != writers*rounds {
		t.Fatalf("merged counter = %d, want %d", got, writers*rounds)
	}
}

func TestRegistrySnapshotIsDetached(t *testing.T) {
	r := NewRegistry()
	r.Set("a", 1)
	snap := r.Snapshot()
	r.Set("a", 2)
	r.Set("b", 3)
	if snap.Get("a") != 1 || len(snap.Names()) != 1 {
		t.Fatalf("snapshot not detached: a=%d names=%v", snap.Get("a"), snap.Names())
	}
	snap.Set("c", 4)
	if got := r.Names(); len(got) != 2 || got[1] != "b" {
		t.Fatal("writing the snapshot leaked into the source")
	}
}

func TestRegistryDump(t *testing.T) {
	r := NewRegistry()
	r.Set("live", 42)
	r.Set("dead", 0)
	full := r.Dump(false)
	if !strings.Contains(full, "live") || !strings.Contains(full, "dead") {
		t.Fatalf("full dump missing lines:\n%s", full)
	}
	skinny := r.String()
	if strings.Contains(skinny, "dead") {
		t.Fatalf("skipZero dump kept zero counter:\n%s", skinny)
	}
	if !strings.Contains(skinny, "live 42") {
		t.Fatalf("dump misformatted:\n%s", skinny)
	}
}
