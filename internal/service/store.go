package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"gmsim/internal/experiments"
)

// Store is the persistent tier of the result cache: one file per content
// address under <dir>/<hash[:2]>/<hash>, written atomically (tmp + rename)
// so a crash never leaves a partial entry at a final path. Every simulation
// is bit-deterministic, so an entry goes stale only when the simulator's
// behaviour changes on purpose: each entry is stamped with the
// experiments.BehaviourEpoch that wrote it, outside the hashed spec. The
// store is append-mostly and survives any number of restarts.
//
// Reads trust nothing: the entry frame is CRC-checked, the epoch must be
// the running simulator's, and the result payload's embedded spec is
// re-canonicalized and re-hashed to prove it belongs at its content
// address. A file that fails any check (truncated, bit-flipped, wrong hash,
// older epoch) is quarantined under <dir>/quarantine/ and reported as a
// miss, so the caller transparently re-simulates; the bad bytes are kept for
// postmortems instead of being served or deleted.
type Store struct {
	dir string

	mu                                sync.Mutex
	hits, misses, writes, quarantined int64
}

// storeMagic heads every entry file; a version bump means a new format.
// (gmstore1 entries carried no behaviour epoch.)
const storeMagic = "gmstore2"

// maxStoreEntry bounds a decodable entry payload (result + trace). The
// biggest real entries are multi-MiB Perfetto traces; 1 GiB is far above
// any simulation output and keeps a corrupt length field from driving a
// giant allocation.
const maxStoreEntry = 1 << 30

// OpenStore opens (creating if needed) a store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// validHash reports whether key is a hex SHA-256 — the only keys the store
// accepts. Synthetic cache keys (the scenario-fleet batch) stay RAM-only.
func validHash(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (st *Store) path(hash string) string {
	return filepath.Join(st.dir, hash[:2], hash)
}

// entryHeader is the first line of an entry file: a fixed-order text header
// binding the content address, the behaviour epoch that wrote the entry and
// the CRC-32s of both payloads. The raw payloads follow it:
//
//	gmstore2 <hash> <epoch> <len(result)> <len(trace)> <crc(result)> <crc(trace)>\n
//	<result bytes><trace bytes>
func entryHeader(hash string, epoch int, e Entry) []byte {
	return fmt.Appendf(nil, "%s %s %d %d %d %08x %08x\n", storeMagic, hash, epoch,
		len(e.Result), len(e.Trace),
		crc32.ChecksumIEEE(e.Result), crc32.ChecksumIEEE(e.Trace))
}

// decodeEntry parses and checksums an entry file. It returns the content
// address and the epoch the file claims plus the payloads, or an error for
// any framing, length or CRC violation. It never panics and never allocates
// beyond the input's own length (the header's lengths must account for
// exactly the bytes present). Whether the payload truly belongs at the
// claimed hash, and was written by this simulator, is the caller's check
// (see Store.Get) — the spec re-hash needs the codec.
func decodeEntry(data []byte) (hash string, epoch int, e Entry, err error) {
	fail := func(format string, args ...any) (string, int, Entry, error) {
		return "", 0, Entry{}, fmt.Errorf("store entry: "+format, args...)
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return fail("no header line")
	}
	fields := bytes.Fields(data[:nl])
	if len(fields) != 7 {
		return fail("header has %d fields, want 7", len(fields))
	}
	if string(fields[0]) != storeMagic {
		return fail("bad magic %q", fields[0])
	}
	hash = string(fields[1])
	if !validHash(hash) {
		return fail("malformed content address %q", hash)
	}
	ep, err := strconv.ParseUint(string(fields[2]), 10, 31)
	if err != nil {
		return fail("epoch: %w", err)
	}
	resLen, err := strconv.ParseUint(string(fields[3]), 10, 31)
	if err != nil {
		return fail("result length: %w", err)
	}
	trcLen, err := strconv.ParseUint(string(fields[4]), 10, 31)
	if err != nil {
		return fail("trace length: %w", err)
	}
	if resLen+trcLen > maxStoreEntry {
		return fail("%d payload bytes over the %d cap", resLen+trcLen, maxStoreEntry)
	}
	resCRC, err := strconv.ParseUint(string(fields[5]), 16, 32)
	if err != nil {
		return fail("result crc: %w", err)
	}
	trcCRC, err := strconv.ParseUint(string(fields[6]), 16, 32)
	if err != nil {
		return fail("trace crc: %w", err)
	}
	// The encoder emits exactly one header form; accept nothing looser.
	// Without this, a CRC field like "0" (vs the canonical "00000000") or
	// doubled spaces would decode cleanly, and two distinct byte strings
	// would map to one entry — re-encoding must reproduce the input.
	canonical := fmt.Sprintf("%s %s %d %d %d %08x %08x", storeMagic, hash, ep, resLen, trcLen, resCRC, trcCRC)
	if string(data[:nl]) != canonical {
		return fail("non-canonical header %q", data[:nl])
	}
	payload := data[nl+1:]
	if uint64(len(payload)) != resLen+trcLen {
		return fail("%d payload bytes, header claims %d", len(payload), resLen+trcLen)
	}
	e.Result = payload[:resLen:resLen]
	e.Trace = payload[resLen:]
	if got := crc32.ChecksumIEEE(e.Result); got != uint32(resCRC) {
		return fail("result crc %08x, header claims %08x", got, resCRC)
	}
	if got := crc32.ChecksumIEEE(e.Trace); got != uint32(trcCRC) {
		return fail("trace crc %08x, header claims %08x", got, trcCRC)
	}
	return hash, int(ep), e, nil
}

// verifyEntry proves a decoded entry belongs at hash and may be served: the
// frame must claim the same address, this simulator's behaviour epoch must
// have written it, and the result's embedded canonical spec must re-hash to
// it. A CRC-clean file at the wrong path (or with a doctored spec), or one
// an older simulator wrote, fails here.
func verifyEntry(hash, claimed string, epoch int, e Entry) error {
	if claimed != hash {
		return fmt.Errorf("store entry: file at %s claims hash %s", hash, claimed)
	}
	if epoch != experiments.BehaviourEpoch {
		return fmt.Errorf("store entry: written under behaviour epoch %d, this simulator is epoch %d", epoch, experiments.BehaviourEpoch)
	}
	var res struct {
		Spec Spec `json:"spec"`
	}
	if err := json.Unmarshal(e.Result, &res); err != nil {
		return fmt.Errorf("store entry: result JSON: %w", err)
	}
	specHash, err := res.Spec.Hash()
	if err != nil {
		return fmt.Errorf("store entry: embedded spec: %w", err)
	}
	if specHash != hash {
		return fmt.Errorf("store entry: embedded spec hashes to %s, not %s", specHash, hash)
	}
	return nil
}

// Put persists the entry for hash atomically (replaceFile). Non-content-
// addressed keys are ignored (nil error) — they are RAM-only by design.
func (st *Store) Put(hash string, e Entry) error {
	if !validHash(hash) {
		return nil
	}
	err := replaceFile(st.path(hash), func(f *os.File) error {
		// Header and result (~1 KB) go out together; the trace (~1 MB) is
		// written from where it lies instead of being copied behind them.
		_, err := f.Write(append(entryHeader(hash, experiments.BehaviourEpoch, e), e.Result...))
		if err == nil {
			_, err = f.Write(e.Trace)
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	st.mu.Lock()
	st.writes++
	st.mu.Unlock()
	return nil
}

// replaceFile gives path new contents, written by write, so that a crash
// leaves the old file or the new one and never a partial one: write fills a
// temp file in path's directory (created if missing), which is fsynced,
// closed and renamed over path. The temp file is removed on any failure. The
// directory itself is not fsynced, so the rename may not survive a power
// loss.
func replaceFile(path string, write func(f *os.File) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	return err
}

// Get returns the verified entry for hash, or a miss. A file that fails
// decoding or verification is quarantined and reported as a miss so the
// caller re-simulates; the store never serves bytes it cannot prove.
func (st *Store) Get(hash string) (Entry, bool) {
	if !validHash(hash) {
		return Entry{}, false
	}
	data, err := os.ReadFile(st.path(hash))
	if err != nil {
		st.mu.Lock()
		st.misses++
		st.mu.Unlock()
		return Entry{}, false
	}
	claimed, epoch, e, err := decodeEntry(data)
	if err == nil {
		err = verifyEntry(hash, claimed, epoch, e)
	}
	if err != nil {
		st.quarantine(hash)
		return Entry{}, false
	}
	st.mu.Lock()
	st.hits++
	st.mu.Unlock()
	return e, true
}

// quarantine moves a failed entry file aside and counts it.
func (st *Store) quarantine(hash string) {
	qdir := filepath.Join(st.dir, "quarantine")
	_ = os.MkdirAll(qdir, 0o755)
	dst := filepath.Join(qdir, fmt.Sprintf("%s.%d", hash, time.Now().UnixNano()))
	_ = os.Rename(st.path(hash), dst)
	st.mu.Lock()
	st.quarantined++
	st.misses++
	st.mu.Unlock()
}

// Stats returns the lifetime hit/miss/write/quarantine counters.
func (st *Store) Stats() (hits, misses, writes, quarantined int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.hits, st.misses, st.writes, st.quarantined
}
