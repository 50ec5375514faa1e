package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestTieBreakScheduleOrder is the property test for event ordering: for
// any batch of timestamps (with heavy duplication), events pop in
// timestamp order, and same-timestamp events pop in the order they were
// scheduled — the tie-break every firmware state machine relies on.
func TestTieBreakScheduleOrder(t *testing.T) {
	prop := func(raw []uint16, seed int64) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 2048 {
			raw = raw[:2048]
		}
		rng := rand.New(rand.NewSource(seed))
		s := New()
		type stamped struct {
			at  Time
			seq int
		}
		sched := make([]stamped, 0, len(raw))
		var got []stamped
		for i, v := range raw {
			// Map into a small range so duplicates are common, and
			// occasionally pile everything on one instant.
			at := Time(v % 97)
			if rng.Intn(4) == 0 {
				at = Time(v % 3)
			}
			ev := stamped{at: at, seq: i}
			sched = append(sched, ev)
			s.At(at, func() { got = append(got, ev) })
		}
		s.Run()
		want := append([]stamped(nil), sched...)
		sort.SliceStable(want, func(a, b int) bool { return want[a].at < want[b].at })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				t.Logf("pop %d: got {at=%d seq=%d}, want {at=%d seq=%d}",
					i, got[i].at, got[i].seq, want[i].at, want[i].seq)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
