// Command simd is the simulation-as-a-service daemon: the cluster
// simulator behind an HTTP/JSON API with a content-addressed result cache
// and crash-safe persistence.
//
// Usage:
//
//	simd [-addr :8642] [-store-dir DIR] [-cache-mb 256] [-queue 64]
//	     [-client-queue 16] [-cost-budget N] [-workers W] [-retry-after SECS]
//	     [-job-deadline DUR] [-read-timeout DUR] [-read-header-timeout DUR]
//	     [-idle-timeout DUR] [-drain-timeout DUR]
//
// Endpoints:
//
//	POST /v1/runs              submit a spec; blocks until the result
//	POST /v1/runs?async=1      submit; returns 202 + job ID immediately
//	GET  /v1/runs/{id}         job status, queue position, result
//	GET  /v1/runs/{id}/trace   Chrome/Perfetto trace JSON of the run
//	GET  /v1/results/{hash}    cached result by content address
//	GET  /v1/deadletter        jobs parked after deadline/panic exhaustion
//	GET  /v1/scenarios         the 13-cell chaos fleet, as one batch
//	GET  /healthz              liveness + queue/running gauges
//	GET  /metrics              service + accumulated cluster counters
//
// Every simulation is bit-deterministic, so a result is a pure function
// of its canonical spec: the daemon hashes each spec's canonical JSON and
// serves repeats from an LRU cache without re-simulating. Misses run on a
// bounded job queue over the shared worker pool, round-robin across
// client API keys (X-API-Key); a full queue — by job count or by summed
// estimated cost — rejects with 429 and a Retry-After hint.
//
// With -store-dir, simd is crash-recoverable: results are persisted
// atomically to a content-addressed store (verified and quarantined-on-
// corruption at read), accepted jobs are journaled before they are
// acknowledged, and on startup the journal is replayed — completed
// results are served from disk without re-simulation and interrupted jobs
// are re-enqueued. A job that outlives its deadline (-job-deadline plus
// its estimated cost at a fixed 200k events/s) or panics twice (one retry,
// fixed) is parked on /v1/deadletter instead of wedging a worker.
//
// SIGTERM or SIGINT drains gracefully: intake stops (503), queued and
// running jobs finish, the listener closes, and the process exits 0. If
// the drain outlives -drain-timeout, simd exits nonzero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"gmsim/internal/service"
)

func main() {
	addr := flag.String("addr", ":8642", "listen address")
	storeDir := flag.String("store-dir", "", "persistence root (result store + job journal); empty = in-memory only")
	cacheMB := flag.Int64("cache-mb", 256, "result cache budget in MiB (0 disables caching)")
	queue := flag.Int("queue", service.DefaultQueueDepth, "total queued-job bound")
	clientQueue := flag.Int("client-queue", service.DefaultClientDepth, "per-API-key queued-job bound")
	costBudget := flag.Int64("cost-budget", service.DefaultCostBudget, "outstanding estimated-cost bound in engine events (<0 disables)")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	retryAfter := flag.Int("retry-after", 1, "Retry-After seconds on 429 rejections")
	jobDeadline := flag.Duration("job-deadline", service.DefaultDeadlineBase, "per-job deadline base, plus a size-scaled share (<0 disables)")
	readTimeout := flag.Duration("read-timeout", 2*time.Minute, "http.Server ReadTimeout (full request read)")
	readHeaderTimeout := flag.Duration("read-header-timeout", 10*time.Second, "http.Server ReadHeaderTimeout (slowloris bound)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout (keep-alive connections)")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Minute, "maximum graceful-drain wait before exiting nonzero")
	flag.Parse()

	cacheBytes := *cacheMB << 20
	if *cacheMB == 0 {
		cacheBytes = -1 // disabled, not defaulted
	}
	srv, err := service.NewServer(service.Config{
		Dir:               *storeDir,
		CacheBytes:        cacheBytes,
		QueueDepth:        *queue,
		ClientDepth:       *clientQueue,
		CostBudget:        *costBudget,
		Workers:           *workers,
		RetryAfterSeconds: *retryAfter,
		DeadlineBase:      *jobDeadline,
	})
	if err != nil {
		log.Fatalf("simd: %v", err)
	}
	// No WriteTimeout: sync submits legitimately hold the response open for
	// the full simulation; the job deadline bounds that instead. The read
	// and idle timeouts keep slow or stalled clients from pinning
	// connections open indefinitely.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadTimeout:       *readTimeout,
		ReadHeaderTimeout: *readHeaderTimeout,
		IdleTimeout:       *idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	persist := "in-memory"
	if *storeDir != "" {
		persist = *storeDir
	}
	log.Printf("simd: listening on %s (cache %d MiB, queue %d, per-client %d, store %s)",
		*addr, *cacheMB, *queue, *clientQueue, persist)

	select {
	case err := <-errc:
		log.Fatalf("simd: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("simd: draining")

	// Drain order: stop intake first so queued work is finite, then let
	// in-flight HTTP requests (sync submits included) finish, then wait for
	// the workers to run the queue dry.
	srv.BeginDrain()
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("simd: http shutdown: %v", err)
	}
	if err := srv.WaitDrained(dctx); err != nil {
		log.Fatalf("simd: drain timed out: %v", err)
	}
	if err := srv.Close(); err != nil {
		log.Printf("simd: close: %v", err)
	}
	<-errc // ListenAndServe has returned ErrServerClosed
	fmt.Println("simd: drained, bye")
}
