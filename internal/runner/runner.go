// Package runner fans independent simulation measurements out over a
// bounded worker pool.
//
// Every experiment in the harness is a set of self-contained deterministic
// simulations — each measurement builds its own cluster (simulator, fabric
// and wiring plan), and no simulation package keeps mutable state between
// simulations (make vet checks that none imports sync), so measurements
// share no state and can run on any worker in any order. The pool exploits
// that: up to Default() (or an explicit worker count) goroutines pull jobs
// from the input slice and write results back by index, so the returned
// slice is always in input order and bit-identical to a serial run.
//
// Determinism is the contract here, not an accident: callers (the figure
// generators in internal/experiments) are verified by a guard test that
// compares parallel output against a serial run value-for-value.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers is the pool width used when a caller passes workers <= 0.
// It starts at GOMAXPROCS and is set from the -parallel flag of the
// experiment commands.
var defaultWorkers atomic.Int64

func init() { defaultWorkers.Store(int64(runtime.GOMAXPROCS(0))) }

// Default returns the current default worker count.
func Default() int { return int(defaultWorkers.Load()) }

// SetDefault sets the default worker count. Values below 1 reset it to
// GOMAXPROCS. It returns the value that took effect.
func SetDefault(n int) int {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	defaultWorkers.Store(int64(n))
	return n
}

// Map applies fn to every item on up to workers concurrent goroutines and
// returns the results in input order. workers <= 0 means Default(). With
// one worker (or one item) it degenerates to a plain loop on the calling
// goroutine. A panic in fn is captured and re-raised on the caller after
// all workers have drained, so failures surface exactly as in a serial run.
func Map[T, R any](workers int, items []T, fn func(T) R) []R {
	n := len(items)
	out := make([]R, n)
	if workers <= 0 {
		workers = Default()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i, item := range items {
			out[i] = fn(item)
		}
		return out
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Value
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, fmt.Sprintf("runner: worker panic: %v", r))
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(items[i])
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
	return out
}
