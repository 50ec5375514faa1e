package service

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func pendingJob(id int, nodes int) PendingJob {
	spec, err := Spec{Nodes: nodes, Iters: 10, Warmup: 2}.Canonicalize()
	if err != nil {
		panic(err)
	}
	hash, err := spec.Hash()
	if err != nil {
		panic(err)
	}
	return PendingJob{ID: fmt.Sprintf("j%06d-%s", id, hash[:8]), Key: "k", Hash: hash, Spec: spec}
}

// TestJournalReplayAndCompaction: accepts without terminal records replay
// in acceptance order; terminal records cancel them; reopening compacts
// the file down to the still-pending accepts.
func TestJournalReplayAndCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, pend, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pend) != 0 {
		t.Fatalf("fresh journal has %d pending", len(pend))
	}
	p1, p2, p3 := pendingJob(1, 4), pendingJob(2, 5), pendingJob(3, 6)
	for _, p := range []PendingJob{p1, p2, p3} {
		if err := j.Accept(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Done(p2.ID); err != nil {
		t.Fatal(err)
	}
	if err := j.DeadLetter(p3.ID, "deadline exceeded"); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, pend, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(pend) != 1 || pend[0].ID != p1.ID {
		t.Fatalf("pending after replay: %+v, want just %s", pend, p1.ID)
	}
	if pend[0].Hash != p1.Hash || pend[0].Spec != p1.Spec {
		t.Fatal("replayed job lost its hash or spec")
	}
	// Compaction happened at open: the file holds exactly one accept line.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 1 {
		t.Fatalf("compacted journal has %d lines:\n%s", n, data)
	}
	if !strings.Contains(string(data), p1.ID) {
		t.Fatalf("compacted journal lost the pending accept:\n%s", data)
	}
}

// TestJournalToleratesTornTail: a kill -9 mid-append leaves a partial
// final line; replay counts it and keeps every committed record.
func TestJournalToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	p := pendingJob(7, 4)
	if err := j.Accept(p); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the torn write: half of a record, no trailing newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"accept","id":"j0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, pend, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("torn journal refused to open: %v", err)
	}
	defer j2.Close()
	if len(pend) != 1 || pend[0].ID != p.ID {
		t.Fatalf("pending %+v, want just %s", pend, p.ID)
	}
	if j2.Torn() != 1 {
		t.Errorf("torn = %d, want 1", j2.Torn())
	}
}

// TestJournalCleanCloseIsEmpty: after every accept reaches a terminal
// state, Close compacts the journal to zero records — a cleanly drained
// server leaves nothing to replay.
func TestJournalCleanCloseIsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	p := pendingJob(1, 4)
	if err := j.Accept(p); err != nil {
		t.Fatal(err)
	}
	if err := j.Failed(p.ID, "spec error"); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("clean-close journal not empty:\n%s", data)
	}
	_, pend, err := OpenJournal(path)
	if err != nil || len(pend) != 0 {
		t.Fatalf("reopen: pend=%v err=%v", pend, err)
	}
}

// TestJournalReplaysInAcceptanceOrder: job numbers outgrow their six-digit
// padding, so j1000000-… sorts before j999999-… as a string. A journal
// compacted and reopened must still hand the jobs back in the order they
// were accepted.
func TestJournalReplaysInAcceptanceOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	a, b := pendingJob(1, 4), pendingJob(2, 5)
	a.ID, b.ID = "j999999-a", "j1000000-b"
	for _, p := range []PendingJob{a, b} {
		if err := j.Accept(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, pend, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(pend) != 2 || pend[0].ID != a.ID || pend[1].ID != b.ID {
		t.Fatalf("replayed %+v, want %s then %s", pend, a.ID, b.ID)
	}
}
