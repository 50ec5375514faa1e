package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
)

// Journal is the service's write-ahead log of accepted jobs. Every async
// accept appends (and fsyncs) a record before the submit is acknowledged;
// terminal transitions (done, failed, deadletter) append follow-ups. On
// startup the journal is replayed: accepts without a terminal record are
// the jobs a crash interrupted — the server re-enqueues them (or serves
// them straight from the store when the result landed on disk before the
// journal's done record did), and the file is compacted down to just the
// still-pending accepts.
//
// The format is JSONL, one record per line. A kill -9 can tear the final
// line mid-write; replay tolerates (and counts) unparseable lines rather
// than refusing to start.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string

	// pending mirrors the accepts without a terminal record, in the order
	// they were accepted, so runtime compaction can rewrite the file without
	// outside help. Bounded by the queue depth plus running jobs.
	pending []PendingJob
	// terminal counts terminal records appended since the last compaction;
	// past compactEvery the file is rewritten to pending accepts only.
	terminal int
	torn     int64
}

// PendingJob is a journaled accept that has no terminal record — work a
// restart must finish.
type PendingJob struct {
	ID   string `json:"id"`
	Key  string `json:"key"`
	Hash string `json:"hash"`
	Spec Spec   `json:"spec"`
}

// journalRecord is one JSONL line.
type journalRecord struct {
	Op   string `json:"op"` // accept, done, failed, deadletter
	ID   string `json:"id"`
	Key  string `json:"key,omitempty"`
	Hash string `json:"hash,omitempty"`
	Spec *Spec  `json:"spec,omitempty"`
	Err  string `json:"error,omitempty"`
}

// Journal record ops.
const (
	opAccept     = "accept"
	opDone       = "done"
	opFailed     = "failed"
	opDeadLetter = "deadletter"
)

// compactEvery bounds journal growth: after this many terminal records the
// file is rewritten with only the still-pending accepts.
const compactEvery = 1024

// OpenJournal opens (creating if needed) the journal at path, replays it,
// compacts it, and returns the pending jobs in acceptance order.
func OpenJournal(path string) (*Journal, []PendingJob, error) {
	j := &Journal{path: path}
	if data, err := os.ReadFile(path); err == nil {
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			var rec journalRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				// A torn tail from a crash mid-append, or garbage; either
				// way the record never fully committed.
				j.torn++
				continue
			}
			switch rec.Op {
			case opAccept:
				if rec.Spec == nil || rec.ID == "" {
					j.torn++
					continue
				}
				j.drop(rec.ID)
				j.pending = append(j.pending, PendingJob{ID: rec.ID, Key: rec.Key, Hash: rec.Hash, Spec: *rec.Spec})
			case opDone, opFailed, opDeadLetter:
				j.drop(rec.ID)
			default:
				j.torn++
			}
		}
	} else if !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	pend := slices.Clone(j.pending)
	if err := j.compactLocked(); err != nil {
		return nil, nil, err
	}
	return j, pend, nil
}

// drop forgets the pending accept with the given ID, if there is one.
func (j *Journal) drop(id string) {
	j.pending = slices.DeleteFunc(j.pending, func(p PendingJob) bool { return p.ID == id })
}

// compactLocked rewrites the journal to just the pending accepts
// (replaceFile) and reopens it for appending. Callers hold j.mu or have
// exclusive access.
func (j *Journal) compactLocked() error {
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
	err := replaceFile(j.path, func(f *os.File) error {
		w := bufio.NewWriter(f)
		for _, p := range j.pending {
			spec := p.Spec
			b, err := json.Marshal(journalRecord{Op: opAccept, ID: p.ID, Key: p.Key, Hash: p.Hash, Spec: &spec})
			if err != nil {
				return err
			}
			w.Write(b)
			w.WriteByte('\n')
		}
		return w.Flush()
	})
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.f = f
	j.terminal = 0
	return nil
}

// appendLocked writes one record, optionally fsyncing. Accepts sync — the
// record is the durability point the 202 response promises; terminal records
// may lag (a lost one only costs a redundant replay against the store).
// Callers hold j.mu and update pending under the same hold, so a compaction
// never runs between a record and its effect on pending.
func (j *Journal) appendLocked(rec journalRecord, sync bool) error {
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := j.f.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	return nil
}

// Accept journals an accepted job; the job is durable once this returns.
func (j *Journal) Accept(p PendingJob) error {
	spec := p.Spec
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.appendLocked(journalRecord{Op: opAccept, ID: p.ID, Key: p.Key, Hash: p.Hash, Spec: &spec}, true); err != nil {
		return err
	}
	j.pending = append(j.pending, p)
	return nil
}

// terminalOp journals a terminal transition and compacts when due.
func (j *Journal) terminalOp(op, id, errMsg string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.appendLocked(journalRecord{Op: op, ID: id, Err: errMsg}, false); err != nil {
		return err
	}
	j.drop(id)
	j.terminal++
	if j.terminal >= compactEvery {
		return j.compactLocked()
	}
	return nil
}

// Done marks a job completed (its result is in the store).
func (j *Journal) Done(id string) error { return j.terminalOp(opDone, id, "") }

// Failed marks a job failed with a spec-level error (not retryable).
func (j *Journal) Failed(id, errMsg string) error { return j.terminalOp(opFailed, id, errMsg) }

// DeadLetter marks a job dead-lettered — terminal; replay must not
// resurrect a job that timed out or panicked repeatedly.
func (j *Journal) DeadLetter(id, errMsg string) error { return j.terminalOp(opDeadLetter, id, errMsg) }

// Torn returns the number of unparseable lines tolerated at open.
func (j *Journal) Torn() int64 { return j.torn }

// Close compacts (a cleanly drained server leaves an empty journal) and
// closes the file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	if err := j.compactLocked(); err != nil {
		return err
	}
	err := j.f.Close()
	j.f = nil
	return err
}
