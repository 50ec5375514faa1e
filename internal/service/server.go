package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"gmsim/internal/experiments"
	"gmsim/internal/runner"
	"gmsim/internal/stats"
)

// Config sizes the service.
type Config struct {
	// Dir roots the service's persistent state: the content-addressed
	// result store under Dir/store and the job journal at
	// Dir/journal.jsonl. Empty means ephemeral — results live only in RAM
	// and queued work dies with the process.
	Dir string
	// CacheBytes is the in-RAM result cache budget (result + trace
	// payloads). 0 means DefaultCacheBytes; negative disables the RAM
	// tier (the store, when configured, still serves).
	CacheBytes int64
	// QueueDepth bounds the total number of queued jobs; a submit beyond
	// it is rejected with 429 and a Retry-After hint. 0 means
	// DefaultQueueDepth.
	QueueDepth int
	// ClientDepth bounds the queued jobs of one API key, so a single
	// client cannot own the whole queue. 0 means DefaultClientDepth.
	ClientDepth int
	// CostBudget bounds the summed estimated cost (see EstimateCost) of
	// queued and running jobs, so a few huge specs cannot occupy a queue
	// that counts slots. 0 means DefaultCostBudget; negative disables
	// cost admission.
	CostBudget int64
	// Workers is the number of concurrent simulations. 0 means the runner
	// pool default (GOMAXPROCS).
	Workers int
	// RetryAfterSeconds is the Retry-After hint on queue-full rejections.
	// 0 means 1.
	RetryAfterSeconds int
	// DeadlineBase sets per-job deadlines: a job may run for DeadlineBase
	// plus its estimated cost at a fixed 200k events/sec before it is
	// abandoned and dead-lettered. 0 means DefaultDeadlineBase; negative
	// disables deadlines.
	DeadlineBase time.Duration

	// exec replaces the simulation executor in tests (deadline, panic and
	// admission tests need controllable job behavior, not real runs).
	exec func(Spec) (Outcome, error)
	// lateBanked, when set, is called once a dead-lettered job's stray run
	// has finished and its result is banked, so a test can wait for it.
	lateBanked func()
}

// Service defaults.
const (
	DefaultCacheBytes  = 256 << 20
	DefaultQueueDepth  = 64
	DefaultClientDepth = 16
)

// maxJobs bounds the completed-job history kept for GET /v1/runs/{id};
// beyond it the oldest finished jobs are forgotten (their results usually
// stay reachable by hash via the cache and store).
const maxJobs = 4096

// maxDeadLetters bounds the dead-letter list; beyond it the oldest entries
// are dropped.
const maxDeadLetters = 256

// Job states as served in status JSON.
const (
	JobQueued       = "queued"
	JobRunning      = "running"
	JobDone         = "done"
	JobFailed       = "failed"
	JobDeadLettered = "deadletter"
)

// Job is one submitted simulation. Its lifecycle is queued → running →
// (queued again after a panic, up to maxAttempts) → done | failed |
// deadletter, and every terminal state is entered through Server.finish.
// Fields other than ID/Key/Spec/Hash/Cost are guarded by the server mutex
// until done closes, after which they are immutable; entry is set exactly
// when status is done.
type Job struct {
	ID   string
	Key  string
	Spec Spec
	Hash string
	Cost int64

	status    string
	errMsg    string
	entry     Entry
	coalesced int
	attempts  int
	done      chan struct{}
}

// JobStatus is the JSON form of a job's state.
type JobStatus struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Hash   string `json:"hash"`
	// Position is the job's 1-based dispatch position while queued.
	Position int `json:"position,omitempty"`
	// Coalesced counts additional submissions that joined this job
	// instead of re-simulating.
	Coalesced int             `json:"coalesced,omitempty"`
	Error     string          `json:"error,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
}

// DeadLetter is one dead-lettered job as served by GET /v1/deadletter: a
// job that exceeded its deadline or panicked on every attempt, parked so
// it cannot poison a worker forever.
type DeadLetter struct {
	ID       string `json:"id"`
	Key      string `json:"key"`
	Hash     string `json:"hash"`
	Spec     Spec   `json:"spec"`
	Reason   string `json:"reason"`
	Attempts int    `json:"attempts"`
}

// Server is the simulation service: a content-addressed result cache (RAM
// over an optional crash-safe disk store) in front of a fair bounded job
// queue over a fixed set of workers, journaling accepted work so a restart
// finishes what a crash interrupted.
// Create with NewServer, mount Handler on an http.Server, Drain on
// shutdown and Close once drained.
type Server struct {
	cfg     Config
	cache   *Cache
	store   *Store   // nil when Config.Dir is empty
	journal *Journal // nil when Config.Dir is empty
	reg     *stats.Registry
	exec    func(Spec) (Outcome, error)

	mu       sync.Mutex
	cond     *sync.Cond
	queue    *fairQueue
	jobs     map[string]*Job
	jobOrder []string
	// byHash holds the admitted jobs — queued or running — by spec hash:
	// a submit of one of them coalesces, and their summed cost is what
	// cost admission bounds.
	byHash   map[string]*Job
	dead     []DeadLetter
	running  int
	draining bool
	seq      int

	// fleetMu serializes filling the /v1/scenarios batch.
	fleetMu sync.Mutex

	workersDone chan struct{}
}

// NewServer builds the service, replays the journal when persistence is
// configured, and starts the workers.
func NewServer(cfg Config) (*Server, error) {
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.ClientDepth == 0 {
		cfg.ClientDepth = DefaultClientDepth
	}
	if cfg.CostBudget == 0 {
		cfg.CostBudget = DefaultCostBudget
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runner.Default()
	}
	if cfg.RetryAfterSeconds <= 0 {
		cfg.RetryAfterSeconds = 1
	}
	if cfg.DeadlineBase == 0 {
		cfg.DeadlineBase = DefaultDeadlineBase
	}
	s := &Server{
		cfg:         cfg,
		cache:       NewCache(cfg.CacheBytes),
		reg:         stats.NewRegistry(),
		exec:        Execute,
		queue:       newFairQueue(),
		jobs:        make(map[string]*Job),
		byHash:      make(map[string]*Job),
		workersDone: make(chan struct{}),
	}
	if cfg.exec != nil {
		s.exec = cfg.exec
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.Dir != "" {
		store, err := OpenStore(filepath.Join(cfg.Dir, "store"))
		if err != nil {
			return nil, err
		}
		journal, pending, err := OpenJournal(filepath.Join(cfg.Dir, "journal.jsonl"))
		if err != nil {
			return nil, err
		}
		s.store, s.journal = store, journal
		s.replay(pending)
	}
	// The workers enter the dispatch loop once and stay there until drain;
	// workersDone closes when the last one has returned.
	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.workerLoop()
		}()
	}
	go func() {
		wg.Wait()
		close(s.workersDone)
	}()
	return s, nil
}

// replay turns the journal's pending accepts back into jobs, built as
// submit builds them and keeping their original IDs and keys: one whose
// result already reached the store (the crash landed between the store
// write and the journal's done record) finishes at once, served from disk;
// the rest are admitted and queued again. Runs before the workers start,
// so only finish locks.
func (s *Server) replay(pending []PendingJob) {
	for _, p := range pending {
		if n := parseSeq(p.ID); n > s.seq {
			s.seq = n
		}
		if _, dup := s.jobs[p.ID]; dup {
			continue
		}
		j := newJob(p.ID, p.Key, p.Spec, p.Hash, EstimateCost(p.Spec))
		if entry, ok := s.lookup(p.Hash); ok {
			s.jobs[j.ID] = j
			s.jobOrder = append(s.jobOrder, j.ID)
			s.finish(j, JobDone, "service.journal.replay_served", "", entry, true)
			continue
		}
		if prev, ok := s.byHash[p.Hash]; ok {
			// Two pending accepts for one hash cannot happen in a single
			// server lifetime (submits coalesce), but journals can overlap
			// across crashes; fold the duplicate onto the live job.
			prev.coalesced++
			_ = s.journal.Done(p.ID)
			continue
		}
		s.admitLocked(j)
		s.reg.Add("service.journal.replayed", 1)
	}
}

// parseSeq extracts the accept sequence number from a job ID ("j%06d-…").
func parseSeq(id string) int {
	rest, ok := strings.CutPrefix(id, "j")
	if !ok {
		return 0
	}
	num, _, ok := strings.Cut(rest, "-")
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(num)
	if err != nil {
		return 0
	}
	return n
}

// lookup is the read-through cache: RAM first, then the verified disk
// store (filling RAM on a disk hit). A store miss — absent, or quarantined
// as corrupt — means the caller re-simulates.
func (s *Server) lookup(hash string) (Entry, bool) {
	if entry, ok := s.cache.Get(hash); ok {
		return entry, true
	}
	if s.store == nil {
		return Entry{}, false
	}
	entry, ok := s.store.Get(hash)
	if !ok {
		return Entry{}, false
	}
	s.cache.Put(hash, entry)
	s.reg.Add("service.cache.disk_hits", 1)
	return entry, true
}

// workerLoop pulls jobs until the queue is empty and the server draining.
func (s *Server) workerLoop() {
	for {
		j := s.nextJob()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

// nextJob blocks for the next round-robin job; nil means drained.
func (s *Server) nextJob() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if j := s.queue.pop(); j != nil {
			j.status = JobRunning
			j.attempts++
			s.running++
			return j
		}
		if s.draining {
			return nil
		}
		s.cond.Wait()
	}
}

// runJob executes one job under its deadline and ends it: a panicking job
// is queued again until it has had maxAttempts; otherwise the outcome goes
// to finish, a successful one through publishEntry first.
func (s *Server) runJob(j *Job) {
	type execResult struct {
		out Outcome
		err error
	}
	ch := make(chan execResult, 1)
	go func() {
		out, err := safeCall(s.exec, j.Spec)
		ch <- execResult{out, err}
	}()

	deadline := s.deadlineFor(j.Cost)
	var timeout <-chan time.Time // nil, never ready, when deadlines are off
	if deadline > 0 {
		timer := time.NewTimer(deadline)
		defer timer.Stop()
		timeout = timer.C
	}
	var r execResult
	select {
	case r = <-ch:
	case <-timeout:
		// The worker abandons the run (a goroutine cannot be killed) and
		// moves on; if the stray run ever finishes, its result is still
		// banked — determinism makes it valid forever.
		go func() {
			if late := <-ch; late.err == nil {
				s.publishEntry(j.Hash, late.out)
				s.reg.Add("service.deadline_late_results", 1)
				if s.cfg.lateBanked != nil {
					s.cfg.lateBanked()
				}
			}
		}()
		s.finish(j, JobDeadLettered, "service.jobs_deadlettered",
			fmt.Sprintf("deadline %v exceeded (estimated cost %d events)", deadline, j.Cost), Entry{}, false)
		return
	}

	panicked := errors.As(r.err, new(panicError))
	var entry Entry
	var stored bool
	if r.err == nil {
		entry, stored, r.err = s.publishEntry(j.Hash, r.out)
	}
	switch {
	case panicked && j.attempts < maxAttempts:
		s.requeue(j)
	case panicked:
		s.finish(j, JobDeadLettered, "service.jobs_deadlettered",
			fmt.Sprintf("panicked %d times: %v", j.attempts, r.err), Entry{}, false)
	case r.err != nil:
		s.finish(j, JobFailed, "service.jobs_failed", r.err.Error(), Entry{}, false)
	default:
		s.finish(j, JobDone, "service.jobs_done", "", entry, stored)
	}
}

// finish is the one exit of a job's lifecycle, whatever ended it: done,
// failed, or dead-lettered by its deadline or by panics. It hands back what
// admission took (the running slot, and the coalescing slot that also
// carries the job's share of the cost budget), records the outcome, bumps
// counter, journals the transition and wakes the waiters. A done job is
// journaled only when stored: otherwise its accept stays pending, the
// waiting client is answered from RAM, and the next start replays the job
// and stores it. A dead-lettered job also joins the dead-letter list, so
// replay will not resurrect it.
func (s *Server) finish(j *Job, status, counter, msg string, entry Entry, stored bool) {
	s.mu.Lock()
	if j.status == JobRunning {
		s.running--
	}
	delete(s.byHash, j.Hash)
	j.status, j.errMsg, j.entry = status, msg, entry
	if status == JobDeadLettered {
		s.dead = append(s.dead, DeadLetter{
			ID: j.ID, Key: j.Key, Hash: j.Hash, Spec: j.Spec,
			Reason: msg, Attempts: j.attempts,
		})
		if len(s.dead) > maxDeadLetters {
			s.dead = s.dead[len(s.dead)-maxDeadLetters:]
		}
	}
	s.reg.Add(counter, 1)
	s.mu.Unlock()
	if s.journal != nil {
		switch {
		case status == JobFailed:
			_ = s.journal.Failed(j.ID, msg)
		case status == JobDeadLettered:
			_ = s.journal.DeadLetter(j.ID, msg)
		case stored:
			_ = s.journal.Done(j.ID)
		}
	}
	close(j.done)
}

// publishEntry banks a successful outcome: RAM cache, disk store (before
// the journal's done record — done must imply stored), metrics. stored is
// false when the store write failed (ENOSPC, a failed fsync or rename); the
// failure is counted and the caller must not journal the job done.
func (s *Server) publishEntry(hash string, out Outcome) (entry Entry, stored bool, err error) {
	resultJSON, err := json.Marshal(out.Result)
	if err != nil {
		return Entry{}, false, err
	}
	entry = Entry{Result: resultJSON, Trace: out.Trace}
	s.cache.Put(hash, entry)
	stored = true
	if s.store != nil && s.store.Put(hash, entry) != nil {
		s.reg.Add("service.store.put_errors", 1)
		stored = false
	}
	if out.Metrics != nil {
		s.reg.AddAll(out.Metrics)
	}
	s.reg.Add("service.runs", 1)
	return entry, stored, nil
}

// requeue puts a panicked job back in line for another attempt.
func (s *Server) requeue(j *Job) {
	s.mu.Lock()
	s.running--
	j.status = JobQueued
	s.queue.push(j)
	s.reg.Add("service.jobs_retried", 1)
	s.mu.Unlock()
	s.cond.Signal()
}

// safeCall runs the executor with panics converted to retryable job
// errors, so one bad spec cannot take a service worker down. Deadlocked
// model programs and configs that fail to build come back from Execute as
// plain errors (failed, not retried: they are deterministic); the recover
// is the safety net for real bugs.
func safeCall(exec func(Spec) (Outcome, error), spec Spec) (out Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicError{r}
		}
	}()
	return exec(spec)
}

// panicError marks an executor panic — the only error class runJob
// retries.
type panicError struct{ v any }

func (p panicError) Error() string { return fmt.Sprintf("simulation panicked: %v", p.v) }

// BeginDrain stops job intake: subsequent submissions get 503, queued and
// running jobs keep going.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// WaitDrained blocks until every queued and running job has finished (the
// workers have exited), or the context expires.
func (s *Server) WaitDrained(ctx context.Context) error {
	select {
	case <-s.workersDone:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Drain is BeginDrain + WaitDrained.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	return s.WaitDrained(ctx)
}

// Close releases the persistent state (compacting the journal — after a
// clean drain it compacts to empty). Call after a successful Drain.
func (s *Server) Close() error {
	if s.journal != nil {
		return s.journal.Close()
	}
	return nil
}

// submit enqueues a canonical spec for a client key, coalescing onto an
// identical pending job when one exists. It returns the job, or an error
// with an HTTP status when the submission is rejected.
func (s *Server) submit(spec Spec, hash, key string) (*Job, int, error) {
	cost := EstimateCost(spec)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, http.StatusServiceUnavailable, fmt.Errorf("server is draining")
	}
	if j, ok := s.byHash[hash]; ok {
		j.coalesced++
		s.reg.Add("service.jobs_coalesced", 1)
		return j, 0, nil
	}
	if s.queue.depth >= s.cfg.QueueDepth {
		s.reg.Add("service.rejected", 1)
		return nil, http.StatusTooManyRequests, fmt.Errorf("queue full (%d jobs)", s.queue.depth)
	}
	if s.queue.lenFor(key) >= s.cfg.ClientDepth {
		s.reg.Add("service.rejected", 1)
		return nil, http.StatusTooManyRequests, fmt.Errorf("client %q has %d queued jobs", key, s.queue.lenFor(key))
	}
	// Budget minus outstanding, not outstanding plus cost: a saturated
	// estimate must not wrap the sum back under the budget.
	if outstanding := s.outstandingCostLocked(); s.cfg.CostBudget > 0 && cost > s.cfg.CostBudget-outstanding {
		s.reg.Add("service.rejected_cost", 1)
		return nil, http.StatusTooManyRequests,
			fmt.Errorf("estimated cost %d would exceed the outstanding budget (%d of %d used)",
				cost, outstanding, s.cfg.CostBudget)
	}
	s.seq++
	j := newJob(fmt.Sprintf("j%06d-%s", s.seq, hash[:8]), key, spec, hash, cost)
	if s.journal != nil {
		// The write-ahead point: the job is durable before it is visible.
		if err := s.journal.Accept(PendingJob{ID: j.ID, Key: key, Hash: hash, Spec: spec}); err != nil {
			return nil, http.StatusInternalServerError, err
		}
	}
	s.admitLocked(j)
	s.pruneJobsLocked()
	s.cond.Signal()
	return j, 0, nil
}

// newJob builds an accepted job, queued.
func newJob(id, key string, spec Spec, hash string, cost int64) *Job {
	return &Job{
		ID: id, Key: key, Spec: spec, Hash: hash, Cost: cost,
		status: JobQueued,
		done:   make(chan struct{}),
	}
}

// admitLocked makes an accepted job visible, takes its coalescing slot and
// queues it. Caller holds s.mu (or, during replay, runs alone).
func (s *Server) admitLocked(j *Job) {
	s.jobs[j.ID] = j
	s.jobOrder = append(s.jobOrder, j.ID)
	s.byHash[j.Hash] = j
	s.queue.push(j)
}

// outstandingCostLocked sums the estimated cost of the admitted jobs,
// saturating at math.MaxInt64. Caller holds s.mu.
func (s *Server) outstandingCostLocked() int64 {
	var sum int64
	for _, j := range s.byHash {
		sum = satAdd(sum, j.Cost)
	}
	return sum
}

// pruneJobsLocked forgets the oldest finished jobs beyond maxJobs.
func (s *Server) pruneJobsLocked() {
	if len(s.jobOrder) <= maxJobs {
		return
	}
	kept := s.jobOrder[:0]
	excess := len(s.jobOrder) - maxJobs
	for _, id := range s.jobOrder {
		j := s.jobs[id]
		if excess > 0 && j != nil && (j.status == JobDone || j.status == JobFailed || j.status == JobDeadLettered) {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.jobOrder = kept
}

// statusLocked snapshots a job's status JSON. Caller holds s.mu.
func (s *Server) statusLocked(j *Job, includeResult bool) JobStatus {
	st := JobStatus{
		ID:        j.ID,
		Status:    j.status,
		Hash:      j.Hash,
		Coalesced: j.coalesced,
		Error:     j.errMsg,
	}
	if j.status == JobQueued {
		st.Position = s.queue.position(j)
	}
	if includeResult && j.status == JobDone {
		st.Result = j.entry.Result
	}
	return st
}

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleRunStatus)
	mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleRunTrace)
	mux.HandleFunc("GET /v1/results/{hash}", s.handleResult)
	mux.HandleFunc("GET /v1/results/{hash}/trace", s.handleResultTrace)
	mux.HandleFunc("GET /v1/deadletter", s.handleDeadLetter)
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// clientKey identifies the submitting client for fairness accounting.
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	return "anonymous"
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Header values of a served result, shared by every response: net/http
// only reads them, and Set would allocate each one again per request.
var (
	jsonContentType = []string{"application/json"}
	xCacheHit       = []string{"hit"}
	xCacheMiss      = []string{"miss"}
)

// writeResult serves a stored result byte-for-byte, flagging cache status
// in a header so hit and miss bodies stay identical.
func writeResult(w http.ResponseWriter, entry Entry, cached bool, jobID string) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	if cached {
		h["X-Cache"] = xCacheHit
	} else {
		h["X-Cache"] = xCacheMiss
	}
	if jobID != "" {
		w.Header().Set("X-Job-Id", jobID)
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(entry.Result)
}

// maxSpecBytes bounds a POST /v1/runs body.
const maxSpecBytes = 1 << 20

// handleSubmit is POST /v1/runs: answer a body already resolved to a cached
// entry from that entry; otherwise validate, canonicalize and hash the spec,
// serve a cache or store hit immediately (a hit never re-simulates), or
// enqueue and either wait (sync) or return the job ID (?async=1). A body
// that resolves to an entry — a hit, or a sync job done — is indexed to it:
// the reply is a pure function of the body's bytes while the entry is
// cached.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		if errors.As(err, new(*http.MaxBytesError)) {
			writeError(w, http.StatusRequestEntityTooLarge, "spec body over the %d-byte limit", maxSpecBytes)
		} else {
			writeError(w, http.StatusBadRequest, "bad spec JSON: %v", err)
		}
		return
	}
	if entry, ok := s.cache.getBody(body); ok {
		writeResult(w, entry, true, "")
		return
	}
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad spec JSON: %v", err)
		return
	}
	canon, err := spec.Canonicalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	hash, err := canon.hash()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	async := r.URL.Query().Get("async") == "1"

	if entry, ok := s.lookup(hash); ok {
		s.cache.indexBody(hash, body)
		writeResult(w, entry, true, "")
		return
	}
	j, code, err := s.submit(canon, hash, clientKey(r))
	if err != nil {
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterSeconds))
		}
		writeError(w, code, "%v", err)
		return
	}
	if async {
		s.mu.Lock()
		st := s.statusLocked(j, false)
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, st)
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// The client went away; the job still completes and fills the
		// cache for the retry.
		return
	}
	if j.status == JobFailed || j.status == JobDeadLettered {
		writeError(w, http.StatusInternalServerError, "%s", j.errMsg)
		return
	}
	s.cache.indexBody(hash, body)
	writeResult(w, j.entry, false, j.ID)
}

// handleRunStatus is GET /v1/runs/{id}: job state, queue position while
// queued, result JSON once done.
func (s *Server) handleRunStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "no such run %q", r.PathValue("id"))
		return
	}
	st := s.statusLocked(j, true)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleRunTrace is GET /v1/runs/{id}/trace: the run's Chrome/Perfetto
// trace JSON.
func (s *Server) handleRunTrace(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	var entry Entry
	var status string
	if ok {
		status = j.status
		entry = j.entry
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no such run %q", r.PathValue("id"))
		return
	}
	if status != JobDone {
		writeError(w, http.StatusConflict, "run %s is %s", j.ID, status)
		return
	}
	if len(entry.Trace) == 0 {
		writeError(w, http.StatusNotFound, "run %s has no trace: its entry carries no trace bytes", j.ID)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(entry.Trace)
}

// handleResult is GET /v1/results/{hash}: a cached or stored result by
// content address, independent of any job.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.lookup(r.PathValue("hash"))
	if !ok {
		writeError(w, http.StatusNotFound, "no cached result for %q", r.PathValue("hash"))
		return
	}
	writeResult(w, entry, true, "")
}

// handleResultTrace is GET /v1/results/{hash}/trace.
func (s *Server) handleResultTrace(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.lookup(r.PathValue("hash"))
	if !ok {
		writeError(w, http.StatusNotFound, "no cached result for %q", r.PathValue("hash"))
		return
	}
	if len(entry.Trace) == 0 {
		writeError(w, http.StatusNotFound, "result was not traced")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(entry.Trace)
}

// handleDeadLetter is GET /v1/deadletter: jobs parked after exceeding
// their deadline or exhausting their panic retries, newest last.
func (s *Server) handleDeadLetter(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	letters := make([]DeadLetter, len(s.dead))
	copy(letters, s.dead)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"deadletter": letters})
}

// scenarioCacheKey addresses the chaos fleet batch in the result cache.
// Not a content hash, so it stays in the RAM tier only.
const scenarioCacheKey = "scenarios/fleet/v1"

// ScenarioCell is one fleet cell's outcome as served by /v1/scenarios.
type ScenarioCell struct {
	Name    string `json:"name"`
	Summary string `json:"summary"`
}

// handleScenarios is GET /v1/scenarios: the 13-cell chaos fleet as one
// batch, cached like any other deterministic result.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	entry, cached, code, err := s.scenarioFleet()
	if err != nil {
		writeError(w, code, "%v", err)
		return
	}
	writeResult(w, entry, cached, "")
}

// scenarioFleet returns the fleet batch, running it on a miss. The fill
// holds fleetMu, and the cache is checked under it, so concurrent cold
// requests run the fleet once: the ones that waited find it cached.
func (s *Server) scenarioFleet() (entry Entry, cached bool, code int, err error) {
	s.fleetMu.Lock()
	defer s.fleetMu.Unlock()
	if entry, ok := s.cache.Get(scenarioCacheKey); ok {
		return entry, true, 0, nil
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		return Entry{}, false, http.StatusServiceUnavailable, fmt.Errorf("server is draining")
	}
	sums, err := experiments.RunScenarios(experiments.ScenarioFleet())
	if err != nil {
		return Entry{}, false, http.StatusInternalServerError, err
	}
	cells := make([]ScenarioCell, 0, len(sums))
	for _, sum := range sums {
		cells = append(cells, ScenarioCell{Name: sum.Name, Summary: sum.String()})
	}
	body, err := json.Marshal(cells)
	if err != nil {
		return Entry{}, false, http.StatusInternalServerError, err
	}
	s.reg.Add("service.fleet_runs", 1)
	entry = Entry{Result: body}
	s.cache.Put(scenarioCacheKey, entry)
	return entry, false, 0, nil
}

// handleHealth is GET /healthz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	status := "ok"
	if s.draining {
		status = "draining"
	}
	queued, running := s.queue.depth, s.running
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  status,
		"queued":  queued,
		"running": running,
	})
}

// handleMetrics is GET /metrics: the accumulated cluster counters plus the
// service's own, as plain "name value" lines.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	hits, misses, evictions := s.cache.Stats()
	snap.Set("service.cache_hits", hits)
	snap.Set("service.cache_misses", misses)
	snap.Set("service.cache_evictions", evictions)
	snap.Set("service.cache_entries", int64(s.cache.Len()))
	snap.Set("service.cache_bytes", s.cache.Bytes())
	if s.store != nil {
		sh, sm, sw, sq := s.store.Stats()
		snap.Set("service.store.hits", sh)
		snap.Set("service.store.misses", sm)
		snap.Set("service.store.writes", sw)
		snap.Set("service.store.quarantined", sq)
	}
	if s.journal != nil {
		snap.Set("service.journal.torn", s.journal.Torn())
	}
	s.mu.Lock()
	snap.Set("service.queue_depth", int64(s.queue.depth))
	snap.Set("service.jobs_running", int64(s.running))
	snap.Set("service.cost_outstanding", s.outstandingCostLocked())
	snap.Set("service.deadletter_size", int64(len(s.dead)))
	if s.draining {
		snap.Set("service.draining", 1)
	} else {
		snap.Set("service.draining", 0)
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = fmt.Fprint(w, snap.Dump(false))
}
