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

// TestReservationPassesWithItsEvent is the property test for Reserve and
// Passed: random schedules of calendar events and timer arms that share
// instants take reservations inside their callbacks, and beside each one
// schedule the real event AtCall would have scheduled at the reservation, as
// its reference. Inside every event that runs, and after Run, Passed of a
// reservation holds exactly when its reference has started.
func TestReservationPassesWithItsEvent(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		type reservation struct {
			k   Key
			ran bool // the reference has started
		}
		var all []*reservation
		ok := true
		check := func() {
			for i, r := range all {
				if ok && s.Passed(r.k) != r.ran {
					t.Logf("seed %d: at %v (event %d) reservation %d %+v: Passed %v, reference started %v",
						seed, s.Now(), s.Executed(), i, r.k, !r.ran, r.ran)
					ok = false
				}
			}
		}
		var timers []*Timer
		budget := 300
		var body func(any)
		body = func(arg any) {
			if r, _ := arg.(*reservation); r != nil {
				r.ran = true
			}
			check()
			for n := rng.Intn(4); n > 0 && budget > 0; n-- {
				budget--
				at := s.Now() + Time(rng.Intn(3))
				switch rng.Intn(5) {
				case 0, 1:
					s.AtCall(at, body, nil)
				case 2:
					timers[rng.Intn(len(timers))].Arm(at)
				case 3:
					timers[rng.Intn(len(timers))].Disarm()
				default:
					r := &reservation{k: s.Reserve(at)}
					s.AtCall(at, body, r)
					all = append(all, r)
				}
			}
		}
		for range 4 {
			timers = append(timers, s.NewTimer(body, nil))
		}
		for range 6 {
			s.AtCall(Time(rng.Intn(3)), body, nil)
		}
		s.Run()
		check()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
