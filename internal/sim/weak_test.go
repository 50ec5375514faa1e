//go:build go1.24

// The weak package arrived in Go 1.24; the module still builds with 1.23,
// where this file is left out.

package sim

import (
	"runtime"
	"testing"
	"weak"
)

// TestFreedSlotDropsArgument: a slot back on the free list holds nothing
// reachable, so an event's argument is collectable once the event has run
// or been cancelled, while the simulator lives on.
func TestFreedSlotDropsArgument(t *testing.T) {
	type record struct{ buf [64]byte } // big enough to skip the tiny allocator
	s := New()
	fn := func(a any) { a.(*record).buf[0]++ }
	ran, cancelled := new(record), new(record)
	wRan, wCancelled := weak.Make(ran), weak.Make(cancelled)
	s.AtCall(10, fn, ran)
	id := s.AtCall(20, fn, cancelled)
	s.RunUntil(15)
	if !s.Cancel(id) {
		t.Fatal("cancel of the pending event failed")
	}
	ran, cancelled = nil, nil
	runtime.GC()
	if wRan.Value() != nil {
		t.Error("the argument of an event that ran is still reachable")
	}
	if wCancelled.Value() != nil {
		t.Error("the argument of a cancelled event is still reachable")
	}
	runtime.KeepAlive(s)
}
