package service

import (
	"encoding/json"
	"fmt"
	"testing"
)

// execJSON canonicalizes, executes and marshals a spec — the fresh-run
// bytes the cache must reproduce exactly.
func execJSON(t *testing.T, s Spec) (string, []byte) {
	t.Helper()
	c, err := s.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := c.Hash()
	if err != nil {
		t.Fatal(err)
	}
	out, err := Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(out.Result)
	if err != nil {
		t.Fatal(err)
	}
	return hash, b
}

// TestCachedResultByteIdentical: for PE and GB, with and without a fault
// plan, a cached result is byte-for-byte the result of re-running the
// simulation — the determinism claim the whole cache design rests on.
func TestCachedResultByteIdentical(t *testing.T) {
	specs := map[string]Spec{
		"pe":         {Nodes: 4, Iters: 10, Warmup: 2},
		"gb":         {Nodes: 4, Alg: "gb", Dim: 3, Iters: 10, Warmup: 2},
		"pe-corrupt": {Nodes: 4, FaultPlan: "corrupt", Iters: 10, Warmup: 2},
		"gb-flap":    {Nodes: 4, Alg: "gb", FaultPlan: "flap", Iters: 10, Warmup: 2},
		"pe-crash":   {Nodes: 4, FaultPlan: "crash", Iters: 10, Warmup: 2},
	}
	cache := NewCache(1 << 20)
	for name, s := range specs {
		t.Run(name, func(t *testing.T) {
			hash, fresh := execJSON(t, s)
			cache.Put(hash, Entry{Result: fresh})
			again, rerun := execJSON(t, s)
			if again != hash {
				t.Fatalf("hash changed across runs: %s vs %s", hash, again)
			}
			if string(rerun) != string(fresh) {
				t.Fatalf("re-run diverged from first run:\n first %s\nsecond %s", fresh, rerun)
			}
			got, ok := cache.Get(hash)
			if !ok {
				t.Fatal("cache lost the entry")
			}
			if string(got.Result) != string(rerun) {
				t.Fatalf("cached bytes differ from fresh run:\ncached %s\n fresh %s", got.Result, rerun)
			}
		})
	}
}

// TestCacheEvictionStaysCorrect: a budget too small for the working set
// evicts, and an evicted spec re-simulates to the same bytes — eviction
// costs time, never correctness.
func TestCacheEvictionStaysCorrect(t *testing.T) {
	specA := Spec{Nodes: 4, Iters: 10, Warmup: 2}
	specB := Spec{Nodes: 5, Iters: 10, Warmup: 2}
	hashA, bytesA := execJSON(t, specA)
	hashB, bytesB := execJSON(t, specB)

	// Budget fits one entry, not two.
	budget := int64(len(bytesA)) + int64(len(bytesB))/2
	cache := NewCache(budget)
	cache.Put(hashA, Entry{Result: bytesA})
	cache.Put(hashB, Entry{Result: bytesB})
	if _, _, ev := cache.Stats(); ev == 0 {
		t.Fatalf("budget %d held both %d-byte entries without evicting", budget, len(bytesA)+len(bytesB))
	}
	if cache.Bytes() > budget {
		t.Fatalf("cache holds %d bytes over budget %d", cache.Bytes(), budget)
	}
	if _, ok := cache.Get(hashA); ok {
		t.Fatal("LRU kept the older entry")
	}
	// The miss path: re-simulate and compare to the pre-eviction bytes.
	_, again := execJSON(t, specA)
	if string(again) != string(bytesA) {
		t.Fatalf("post-eviction re-run diverged:\nbefore %s\n after %s", bytesA, again)
	}
}

// TestCacheLRUAndBudget: unit behavior — recency ordering, refresh,
// oversized entries, disabled cache.
func TestCacheLRUAndBudget(t *testing.T) {
	entry := func(n int) Entry { return Entry{Result: make([]byte, n)} }
	c := NewCache(100)
	c.Put("a", entry(40))
	c.Put("b", entry(40))
	if _, ok := c.Get("a"); !ok { // refresh a's recency
		t.Fatal("a missing")
	}
	c.Put("c", entry(40)) // evicts b, the LRU
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("recently used a was evicted")
	}
	c.Put("huge", entry(101)) // over the whole budget: not cached
	if _, ok := c.Get("huge"); ok {
		t.Error("oversized entry was cached")
	}
	c.Put("a", entry(60)) // refresh with a bigger payload
	if c.Bytes() > 100 {
		t.Errorf("refresh overran the budget: %d bytes", c.Bytes())
	}

	off := NewCache(0)
	off.Put("x", entry(1))
	if _, ok := off.Get("x"); ok {
		t.Error("disabled cache returned a hit")
	}
	if off.Len() != 0 {
		t.Error("disabled cache stored an entry")
	}
}

// TestCacheBodyIndexEviction: an indexed request body is charged to the
// budget with its entry, answers getBody while the entry is cached, and
// leaves with it on eviction; indexing under an absent key, or a body twice,
// changes nothing.
func TestCacheBodyIndexEviction(t *testing.T) {
	entry := func(n int) Entry { return Entry{Result: make([]byte, n)} }
	body := []byte(`{"nodes":4}`)
	c := NewCache(100)
	c.Put("a", entry(40))
	c.indexBody("a", body)
	c.indexBody("a", body)
	c.indexBody("absent", []byte(`{"nodes":5}`))
	if got, want := c.Bytes(), int64(40+len(body)); got != want {
		t.Fatalf("Bytes %d after indexing a %d-byte body, want %d", got, len(body), want)
	}
	if len(c.bodies) != 1 {
		t.Fatalf("%d bodies indexed, want 1", len(c.bodies))
	}
	hits, misses, _ := c.Stats()
	if _, ok := c.getBody(body); !ok {
		t.Fatal("indexed body missed")
	}
	if _, ok := c.getBody([]byte(`{"nodes":5}`)); ok {
		t.Fatal("a body indexed under an absent key hit")
	}
	if h, m, _ := c.Stats(); h != hits+1 || m != misses {
		t.Errorf("hit then miss counted %d hits and %d misses, want 1 and 0", h-hits, m-misses)
	}

	c.Put("b", entry(40))
	c.Put("c", entry(15)) // 40+11+40+15 > 100: evicts a, the LRU, and its body
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived eviction")
	}
	if _, ok := c.getBody(body); ok {
		t.Error("a's body still answers after a was evicted")
	}
	if len(c.bodies) != 0 {
		t.Errorf("%d bodies indexed after eviction, want 0", len(c.bodies))
	}
	if got := c.Bytes(); got != 55 {
		t.Errorf("Bytes %d after eviction, want 55", got)
	}

	// A body that would overrun the budget evicts the least recently used
	// entry, not the one it indexes.
	c.Get("c")
	c.indexBody("c", make([]byte, 50)) // 55+50 > 100
	if _, ok := c.Get("b"); ok {
		t.Error("b, the LRU, survived the body's charge")
	}
	if _, ok := c.getBody(make([]byte, 50)); !ok {
		t.Error("the body that forced the eviction is not indexed")
	}
	if got := c.Bytes(); got != 65 {
		t.Errorf("Bytes %d, want 65", got)
	}
}

// TestFairQueueRoundRobin: a client that floods the queue interleaves
// one-for-one with the others instead of starving them.
func TestFairQueueRoundRobin(t *testing.T) {
	q := newFairQueue()
	mk := func(key string, i int) *Job {
		return &Job{ID: fmt.Sprintf("%s%d", key, i), Key: key}
	}
	jobs := []*Job{mk("A", 1), mk("A", 2), mk("A", 3), mk("B", 1), mk("C", 1)}
	for _, j := range jobs {
		q.push(j)
	}
	if q.lenFor("A") != 3 || q.lenFor("B") != 1 {
		t.Fatalf("lenFor: A=%d B=%d", q.lenFor("A"), q.lenFor("B"))
	}
	// A3 dispatches after one full round (A1 B1 C1) plus A2.
	if pos := q.position(jobs[2]); pos != 5 {
		t.Errorf("position(A3) = %d, want 5", pos)
	}
	if pos := q.position(jobs[3]); pos != 2 {
		t.Errorf("position(B1) = %d, want 2", pos)
	}
	var got []string
	for j := q.pop(); j != nil; j = q.pop() {
		got = append(got, j.ID)
	}
	want := "A1 B1 C1 A2 A3"
	if g := fmt.Sprint(got); g != fmt.Sprintf("[%s]", want) {
		t.Fatalf("pop order %v, want [%s]", got, want)
	}
	if q.depth != 0 || q.pop() != nil {
		t.Error("drained queue still yields jobs")
	}
}
