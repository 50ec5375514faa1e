package runner

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMapPreservesInputOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	got := Map(8, items, func(x int) int { return x * x })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapEmptyInput(t *testing.T) {
	got := Map(4, nil, func(x int) int { return x })
	if len(got) != 0 {
		t.Fatalf("len = %d, want 0", len(got))
	}
}

func TestMapSerialMatchesParallel(t *testing.T) {
	items := make([]int, 57)
	for i := range items {
		items[i] = i * 3
	}
	fn := func(x int) int { return x*31 + 7 }
	serial := Map(1, items, fn)
	parallel := Map(16, items, fn)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("index %d: serial %d != parallel %d", i, serial[i], parallel[i])
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var live, peak atomic.Int64
	Map(workers, make([]int, 64), func(int) int {
		n := live.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		runtime.Gosched()
		live.Add(-1)
		return 0
	})
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

func TestMapPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	Map(4, make([]int, 16), func(int) int { panic("boom") })
}

func TestSetDefaultClampsToOne(t *testing.T) {
	old := Default()
	defer SetDefault(old)
	if got := SetDefault(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("SetDefault(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := SetDefault(5); got != 5 || Default() != 5 {
		t.Fatalf("SetDefault(5) = %d, Default() = %d", got, Default())
	}
}
