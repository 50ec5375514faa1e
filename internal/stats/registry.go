package stats

import (
	"fmt"
	"strings"
	"sync"
)

// Registry is a lightweight always-on metrics registry: named int64
// counters with insertion-ordered dumps. Cluster code aggregates firmware,
// fabric and phase counters into one so `barrierbench -metrics` (and any
// experiment) can dump a consistent snapshot without reaching into every
// subsystem.
//
// A Registry is safe for concurrent use: the simulation service keeps one
// long-lived registry that worker goroutines merge run metrics into while
// /metrics handlers read it (see internal/service). A single-threaded
// experiment pays one uncontended lock per operation, which is noise next
// to the reflective counter walk that feeds it.
type Registry struct {
	mu    sync.RWMutex
	names []string
	vals  map[string]int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{vals: make(map[string]int64)}
}

// Add increments (or creates) the named counter by delta.
func (r *Registry) Add(name string, delta int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.vals[name]; !ok {
		r.names = append(r.names, name)
	}
	r.vals[name] += delta
}

// Set replaces (or creates) the named counter.
func (r *Registry) Set(name string, v int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.vals[name]; !ok {
		r.names = append(r.names, name)
	}
	r.vals[name] = v
}

// Get returns the named counter (0 if absent).
func (r *Registry) Get(name string) int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.vals[name]
}

// Names returns the counter names in insertion order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.names...)
}

// Snapshot returns a point-in-time copy of the registry: counters added or
// changed afterwards do not show in the copy. The copy is itself a live
// Registry, so readers can dump, sort or mutate it freely without holding
// up writers.
func (r *Registry) Snapshot() *Registry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := &Registry{
		names: append([]string(nil), r.names...),
		vals:  make(map[string]int64, len(r.vals)),
	}
	for k, v := range r.vals {
		s.vals[k] = v
	}
	return s
}

// AddAll merges every counter of from into r by addition. The merge reads
// a snapshot of from, so from may be written concurrently; r observes a
// consistent point-in-time view of it.
func (r *Registry) AddAll(from *Registry) {
	if from == nil {
		return
	}
	snap := from.Snapshot()
	for _, name := range snap.names {
		r.Add(name, snap.vals[name])
	}
}

// Dump renders the registry as aligned "name value" lines in insertion
// order, skipping zero counters when skipZero is set (firmware stats have
// dozens of fields; a barrier run touches a handful).
func (r *Registry) Dump(skipZero bool) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	width := 0
	for _, n := range r.names {
		if skipZero && r.vals[n] == 0 {
			continue
		}
		if len(n) > width {
			width = len(n)
		}
	}
	var b strings.Builder
	for _, n := range r.names {
		if skipZero && r.vals[n] == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-*s %d\n", width, n, r.vals[n])
	}
	return b.String()
}

func (r *Registry) String() string { return r.Dump(true) }
