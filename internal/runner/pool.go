package runner

import "fmt"

// Pool is a set of persistent workers for fork-join rounds.
//
// runner.Map spins up goroutines per call, which suits a batch of whole
// simulations. A Pool keeps its workers parked between rounds instead; its
// one user is the simd server, whose workers enter the dispatch loop
// through a single Each round and stay there until drain.
type Pool struct {
	n      int
	start  []chan func(int)
	done   chan workerResult
	closed bool
}

// workerResult reports one worker's completion of a round; p carries a
// recovered panic, if any.
type workerResult struct {
	worker int
	p      any
}

// NewPool creates a pool of n persistent workers. n is clamped below at 1;
// a 1-worker pool runs every round inline on the caller.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{n: n}
	if n == 1 {
		return p
	}
	p.start = make([]chan func(int), n)
	p.done = make(chan workerResult, n)
	for i := 0; i < n; i++ {
		ch := make(chan func(int))
		p.start[i] = ch
		go func(worker int, ch chan func(int)) {
			for fn := range ch {
				res := workerResult{worker: worker}
				func() {
					defer func() { res.p = recover() }()
					fn(worker)
				}()
				p.done <- res
			}
		}(i, ch)
	}
	return p
}

// Workers returns the pool width.
func (p *Pool) Workers() int { return p.n }

// Each runs fn(0) .. fn(n-1) concurrently, one call per worker, and
// returns when all have finished. A panic in any fn is re-raised on the
// caller after every worker has drained, so a failing round cannot leave
// workers mid-flight.
func (p *Pool) Each(fn func(worker int)) {
	if p.closed {
		panic("runner: Each on closed Pool")
	}
	if p.n == 1 {
		fn(0)
		return
	}
	for _, ch := range p.start {
		ch <- fn
	}
	var firstPanic any
	for i := 0; i < p.n; i++ {
		res := <-p.done
		if res.p != nil && firstPanic == nil {
			firstPanic = fmt.Errorf("runner: worker %d panicked: %v", res.worker, res.p)
		}
	}
	if firstPanic != nil {
		panic(firstPanic)
	}
}

// Close releases the pool's workers. The pool must not be used afterwards.
// Closing an inline (1-worker) pool is a no-op; Close is idempotent.
func (p *Pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, ch := range p.start {
		close(ch)
	}
}
