package service

import (
	"container/list"
	"sync"
)

// Entry is one cached run: the result JSON and, when the run was traced,
// the Chrome/Perfetto trace JSON. Both are immutable once cached — callers
// must not mutate the returned slices.
type Entry struct {
	Result []byte
	Trace  []byte
}

func (e Entry) size() int64 { return int64(len(e.Result) + len(e.Trace)) }

// Cache is a content-addressed LRU result cache with a byte budget.
// Keys are canonical spec hashes; because every simulation is
// bit-deterministic, an entry never goes stale — eviction exists only to
// bound memory, and an evicted spec re-simulates to byte-identical output.
//
// The cache also indexes request bodies: a body the server has already
// resolved to an entry maps straight to it, so a byte-identical repeat is
// answered without decoding or hashing. Indexed bodies are charged to the
// budget with their entry and leave when it is evicted.
type Cache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	order  *list.List // front = most recent; values are *cacheItem
	items  map[string]*list.Element
	bodies map[string]*list.Element

	hits, misses, evictions int64
}

type cacheItem struct {
	key    string
	entry  Entry
	bodies []string // request bodies indexed to this entry
}

// size is what the item charges against the budget: its payloads and its
// indexed bodies.
func (it *cacheItem) size() int64 {
	sz := it.entry.size()
	for _, b := range it.bodies {
		sz += int64(len(b))
	}
	return sz
}

// NewCache returns a cache holding at most budget bytes of entries
// (result + trace payloads). A budget <= 0 disables caching: every Get
// misses and Put is a no-op — useful for measuring cold latency.
func NewCache(budget int64) *Cache {
	return &Cache{
		budget: budget,
		order:  list.New(),
		items:  make(map[string]*list.Element),
		bodies: make(map[string]*list.Element),
	}
}

// Get returns the entry for key and marks it most recently used.
func (c *Cache) Get(key string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return Entry{}, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheItem).entry, true
}

// Put inserts (or refreshes) the entry for key, evicting least-recently-
// used entries until the budget holds. An entry larger than the whole
// budget is not cached at all.
func (c *Cache) Put(key string, e Entry) {
	sz := e.size()
	c.mu.Lock()
	defer c.mu.Unlock()
	if sz > c.budget {
		return
	}
	if el, ok := c.items[key]; ok {
		// Determinism makes a differing re-insert impossible, but refresh
		// recency and bytes anyway rather than trusting the caller.
		c.bytes += sz - el.Value.(*cacheItem).entry.size()
		el.Value.(*cacheItem).entry = e
		c.order.MoveToFront(el)
	} else {
		c.items[key] = c.order.PushFront(&cacheItem{key: key, entry: e})
		c.bytes += sz
	}
	c.evictLocked()
}

// getBody returns the entry a request body was indexed to, marking it most
// recently used. A hit counts as one cache hit; a miss counts nothing, as
// the caller goes on to the full lookup, which counts its own.
func (c *Cache) getBody(body []byte) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.bodies[string(body)]
	if !ok {
		return Entry{}, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheItem).entry, true
}

// indexBody records that body resolves to the entry cached under key, so
// getBody answers it next time. It is a no-op when key is not cached or
// body is already indexed; the copied body is charged to the budget, and
// the least-recently-used entries are evicted until it holds. Recency is
// left alone: the lookup that resolved the body already set it.
func (c *Cache) indexBody(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return
	}
	if _, ok := c.bodies[string(body)]; ok {
		return
	}
	it := el.Value.(*cacheItem)
	b := string(body)
	it.bodies = append(it.bodies, b)
	c.bodies[b] = el
	c.bytes += int64(len(b))
	c.evictLocked()
}

// evictLocked drops least-recently-used entries, with their indexed bodies,
// until the budget holds. Caller holds c.mu.
func (c *Cache) evictLocked() {
	for c.bytes > c.budget {
		back := c.order.Back()
		if back == nil {
			break
		}
		it := back.Value.(*cacheItem)
		c.order.Remove(back)
		delete(c.items, it.key)
		for _, b := range it.bodies {
			delete(c.bodies, b)
		}
		c.bytes -= it.size()
		c.evictions++
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Bytes returns the cached payload size, indexed request bodies included.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns the lifetime hit/miss/eviction counters.
func (c *Cache) Stats() (hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}
