package service

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"gmsim/internal/experiments"
)

// encodeEntry is a whole entry file in memory, as this simulator's epoch
// writes it — the header line, then the raw payloads. Put writes the same
// bytes without assembling them; the codec tests and FuzzStoreEntryDecode's
// re-encode property use this form.
func encodeEntry(hash string, e Entry) []byte {
	return encodeEntryAt(hash, experiments.BehaviourEpoch, e)
}

// encodeEntryAt is encodeEntry for an entry another epoch wrote.
func encodeEntryAt(hash string, epoch int, e Entry) []byte {
	return append(append(entryHeader(hash, epoch, e), e.Result...), e.Trace...)
}

// storedEntry runs a small spec and returns its hash and entry — a real
// payload so the embedded-spec verification has something to chew on.
func storedEntry(t *testing.T, s Spec) (string, Entry) {
	t.Helper()
	hash, result := execJSON(t, s)
	return hash, Entry{Result: result, Trace: []byte(`{"traceEvents":[]}`)}
}

// storeLen counts the entry files under the store's root, quarantine aside.
func storeLen(t *testing.T, st *Store) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(st.dir, "??", "*"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, f := range files {
		if validHash(filepath.Base(f)) {
			n++
		}
	}
	return n
}

// TestStoreRoundTrip: Put then Get returns byte-identical payloads, laid
// out under <dir>/<hash[:2]>/<hash>, with no temp files left behind.
func TestStoreRoundTrip(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hash, entry := storedEntry(t, Spec{Nodes: 4, Iters: 10, Warmup: 2})
	if err := st.Put(hash, entry); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(st.dir, hash[:2], hash)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("entry not at the content-addressed path: %v", err)
	}
	if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, encodeEntry(hash, entry)) {
		t.Fatalf("file on disk is not the entry's encoding (read error %v)", err)
	}
	got, ok := st.Get(hash)
	if !ok {
		t.Fatal("stored entry missed")
	}
	if !bytes.Equal(got.Result, entry.Result) || !bytes.Equal(got.Trace, entry.Trace) {
		t.Fatal("stored entry payloads differ")
	}
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp file left behind: %s", e.Name())
		}
	}
	if n := storeLen(t, st); n != 1 {
		t.Errorf("store holds %d entries, want 1", n)
	}
	if _, _, w, _ := st.Stats(); w != 1 {
		t.Errorf("writes = %d, want 1", w)
	}
}

// TestStorePutDoesNotCopyEntry: Put writes the payloads from where they lie.
// Framing a 1 MB entry in memory first (header, result and trace appended
// into one growing buffer) cost about 2 MB per cold request.
func TestStorePutDoesNotCopyEntry(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hash, entry := storedEntry(t, Spec{Nodes: 4, Iters: 10, Warmup: 2})
	entry.Trace = bytes.Repeat([]byte(`{"name":"bar.token","ph":"X"},`), 1<<20/30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = st.Put(hash, entry)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("Put of a %d-byte entry allocated %d bytes, want under 64 KB", entry.size(), got)
	}
	if got, ok := st.Get(hash); !ok || !bytes.Equal(got.Trace, entry.Trace) {
		t.Error("entry did not survive the round trip")
	}
}

// TestStoreQuarantinesCorruption: every corruption mode — truncation, a
// payload bit flip, a file at the wrong content address, an entry from a
// version whose spec codec accepted more than today's — is detected,
// quarantined (file moved, never served), and reported as a miss so the
// caller re-simulates. A fresh Put afterwards heals the slot.
func TestStoreQuarantinesCorruption(t *testing.T) {
	spec := Spec{Nodes: 4, Iters: 10, Warmup: 2}
	other := Spec{Nodes: 5, Iters: 10, Warmup: 2}

	corruptions := map[string]func(t *testing.T, st *Store, hash string){
		"truncated": func(t *testing.T, st *Store, hash string) {
			path := filepath.Join(st.dir, hash[:2], hash)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"bitflip": func(t *testing.T, st *Store, hash string) {
			path := filepath.Join(st.dir, hash[:2], hash)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-3] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"wrong-address": func(t *testing.T, st *Store, hash string) {
			// A CRC-clean entry for a different spec, planted at this hash's
			// path: only the embedded-spec re-hash can catch it.
			otherHash, otherEntry := storedEntry(t, other)
			if otherHash == hash {
				t.Fatal("test specs collide")
			}
			path := filepath.Join(st.dir, hash[:2], hash)
			if err := os.WriteFile(path, encodeEntry(hash, otherEntry), 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"removed-axis": func(t *testing.T, st *Store, hash string) {
			// What a version with the partitioned engine stored: a
			// CRC-clean entry whose embedded spec says partitions 2. That
			// spec no longer canonicalizes, so whatever address the entry
			// sits at it cannot be verified and is refused.
			_, e := storedEntry(t, spec)
			e.Result = bytes.Replace(e.Result, []byte(`"partitions":1`), []byte(`"partitions":2`), 1)
			if err := verifyEntry(hash, hash, experiments.BehaviourEpoch, e); err == nil || !strings.Contains(err.Error(), "partitioned engine was removed") {
				t.Fatalf("verifyEntry on a partitions=2 spec: %v, want a refusal naming the removal", err)
			}
			path := filepath.Join(st.dir, hash[:2], hash)
			if err := os.WriteFile(path, encodeEntry(hash, e), 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}

	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			st, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			hash, entry := storedEntry(t, spec)
			if err := st.Put(hash, entry); err != nil {
				t.Fatal(err)
			}
			corrupt(t, st, hash)

			if _, ok := st.Get(hash); ok {
				t.Fatal("corrupt entry was served")
			}
			if _, _, _, q := st.Stats(); q != 1 {
				t.Fatalf("quarantined = %d, want 1", q)
			}
			if _, err := os.Stat(filepath.Join(st.dir, hash[:2], hash)); !os.IsNotExist(err) {
				t.Error("corrupt file still at its content-addressed path")
			}
			qfiles, err := filepath.Glob(filepath.Join(st.dir, "quarantine", hash+".*"))
			if err != nil || len(qfiles) != 1 {
				t.Fatalf("quarantine files %v (err %v), want exactly 1", qfiles, err)
			}
			// Re-simulate and re-Put: the slot heals and serves again.
			if err := st.Put(hash, entry); err != nil {
				t.Fatal(err)
			}
			got, ok := st.Get(hash)
			if !ok || !bytes.Equal(got.Result, entry.Result) {
				t.Fatal("healed entry not served byte-identical")
			}
		})
	}
}

// TestStoreRejectsSyntheticKeys: non-content-addressed cache keys (the
// scenario fleet batch) never touch the disk tier.
func TestStoreRejectsSyntheticKeys(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(scenarioCacheKey, Entry{Result: []byte("[]")}); err != nil {
		t.Fatal(err)
	}
	if storeLen(t, st) != 0 {
		t.Error("synthetic key was persisted")
	}
	if _, ok := st.Get(scenarioCacheKey); ok {
		t.Error("synthetic key was served from disk")
	}
	if _, ok := st.Get("ZZ not a hash"); ok {
		t.Error("malformed key was served")
	}
}

// TestEntryCodecRoundTrip: encode/decode is the identity, including empty
// traces, and decode rejects a tampered header field.
func TestEntryCodecRoundTrip(t *testing.T) {
	hash := strings.Repeat("ab", 32)
	for _, e := range []Entry{
		{Result: []byte(`{"spec":{}}`), Trace: []byte(`{"traceEvents":[]}`)},
		{Result: []byte(`{}`)},
		{},
	} {
		data := encodeEntry(hash, e)
		gotHash, gotEpoch, got, err := decodeEntry(data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if gotHash != hash || gotEpoch != experiments.BehaviourEpoch || !bytes.Equal(got.Result, e.Result) || !bytes.Equal(got.Trace, e.Trace) {
			t.Fatalf("roundtrip mismatch: %q %v vs %v", gotHash, got, e)
		}
	}
	data := encodeEntry(hash, Entry{Result: []byte("xyz")})
	data[len(storeMagic)+1] = 'Z' // tamper with the hash field
	if _, _, _, err := decodeEntry(data); err == nil {
		t.Error("tampered header decoded cleanly")
	}
}
