package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"strconv"
	"strings"
	"time"

	"gmsim/internal/service"
)

// The svc workload drives one simd instance (store and journal on disk
// under the state directory, one worker, a RAM tier too small to keep the
// disk set) over a real loopback listener, closed loop, one client.
const (
	// svcDiskSet is the number of pre-filled specs the disk op cycles
	// through; svcCacheBytes holds about four ~0.9 MB entries, so under
	// LRU a cyclic set of 24 is never resident when its turn comes.
	svcDiskSet    = 24
	svcCacheBytes = 4 << 20
	// One timed op is a batch of this many POSTs, sized to last ≥5 ms.
	svcDiskBatch = 20
	svcRAMBatch  = 500
)

// Kernel shares of the three op types: the exponent of the loopback
// kernel's slowdown that best flattened each type's calibrated time over
// 14 runs spanning a noisy-neighbour episode (README.md has the table).
// A RAM hit is almost all socket and netpoller work; a disk hit is mostly
// CRC, SHA-256 and copying; a cold request adds file writes and fsyncs to
// a simulation.
const (
	svcColdShare = 0.4
	svcDiskShare = 0.1
	svcRAMShare  = 0.9
)

// stateRoot is where service state lives while a run is in progress:
// inside the checkout, because the benchmark may write nowhere else.
const stateRoot = ".bench_out"

// svcSpec is the request body of every svc op: identical simulated work
// (16 nodes, NIC PE, one deterministic link flap, 10 timed barriers),
// told apart only by the fault-plan seed, which changes the content hash
// and nothing the flap plan does.
func svcSpec(seed int64) []byte {
	return []byte(fmt.Sprintf(`{"nodes":16,"fault_plan":"flap","seed":%d,"warmup":5,"iters":10}`, seed))
}

// svcSeeds derives the spec seeds of a run from the benchmark seed: the
// resident spec, the disk set, and the base from which cold ops count up.
// Distinct benchmark seeds give disjoint ranges.
func svcSeeds(seed int64) (ram int64, disk []int64, coldBase int64) {
	base := (seed&0xFFFFF + 1) << 24
	ram = base
	for i := 0; i < svcDiskSet; i++ {
		disk = append(disk, base+1+int64(i))
	}
	return ram, disk, base + 1 + svcDiskSet
}

type svcEnv struct {
	dir    string
	srv    *service.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client

	ramBody   []byte
	diskBody  [][]byte
	diskNext  int
	coldBase  int64
	coldCount int64
	// golden holds the verified response of each disk/ram spec; a cache
	// hit must serve the same bytes.
	golden map[string][]byte
}

// reply is one POST's answer, kept for verification outside the timed
// region.
type reply struct {
	body   []byte
	xcache string
}

func newSvcEnv(seed int64) (*svcEnv, error) {
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(stateRoot, "svc-")
	if err != nil {
		return nil, err
	}
	srv, err := service.NewServer(service.Config{Dir: dir, Workers: 1, CacheBytes: svcCacheBytes})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background())
		_ = srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	e := &svcEnv{
		dir:    dir,
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		golden: make(map[string][]byte),
	}
	go func() { e.served <- e.hs.Serve(ln) }()

	ram, disk, coldBase := svcSeeds(seed)
	e.ramBody, e.coldBase = svcSpec(ram), coldBase
	for _, s := range disk {
		e.diskBody = append(e.diskBody, svcSpec(s))
	}
	return e, nil
}

// close stops the listener, drains the server and removes the state.
func (e *svcEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	e.client.CloseIdleConnections()
	err = errors.Join(err, e.srv.Drain(ctx), e.srv.Close())
	return errors.Join(err, os.RemoveAll(e.dir))
}

func (e *svcEnv) post(body []byte) (reply, error) {
	resp, err := e.client.Post(e.url+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("POST /v1/runs: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return reply{body: b, xcache: resp.Header.Get("X-Cache")}, nil
}

// svcCounters are the /metrics lines whose deltas identify the tier that
// served a request.
var svcCounters = map[string]string{
	"service.runs":            "runs",
	"service.cache.disk_hits": "disk_hits",
	"service.store.hits":      "store_hits",
	"service.store.writes":    "store_writes",
	"service.cache_hits":      "ram_hits",
}

func (e *svcEnv) metrics() (map[string]int64, error) {
	resp, err := e.client.Get(e.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := make(map[string]int64, len(svcCounters))
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		if short, ok := svcCounters[f[0]]; ok {
			v, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("GET /metrics: %q: %w", sc.Text(), err)
			}
			out[short] = v
		}
	}
	return out, sc.Err()
}

// resultOutcome extracts the checked fields from a result body.
func resultOutcome(body []byte) (outcome, error) {
	var o outcome
	if err := json.Unmarshal(body, &o); err != nil {
		return outcome{}, fmt.Errorf("result body: %w", err)
	}
	o.Counters = nil
	return o, nil
}

// batch performs one svc op: an untimed /metrics snapshot, the timed
// POSTs, another snapshot, then verification of every reply.
func (e *svcEnv) batch(bodies [][]byte, timed func(func() error) error) (outcome, error) {
	before, err := e.metrics()
	if err != nil {
		return outcome{}, err
	}
	replies := make([]reply, 0, len(bodies))
	err = timed(func() error {
		for _, b := range bodies {
			r, err := e.post(b)
			if err != nil {
				return err
			}
			replies = append(replies, r)
		}
		return nil
	})
	if err != nil {
		return outcome{}, err
	}
	after, err := e.metrics()
	if err != nil {
		return outcome{}, err
	}

	// A reply seen before must be served byte-identically; a new one must
	// carry the same simulated numbers as the rest of the batch.
	out, err := resultOutcome(replies[0].body)
	if err != nil {
		return outcome{}, err
	}
	counters := map[string]int64{"x_hit": 0, "x_miss": 0}
	for _, short := range svcCounters {
		// A counter the server has never bumped is absent from /metrics.
		counters[short] = after[short] - before[short]
	}
	for i, r := range replies {
		switch r.xcache {
		case "hit":
			counters["x_hit"]++
		case "miss":
			counters["x_miss"]++
		default:
			return outcome{}, fmt.Errorf("X-Cache header %q", r.xcache)
		}
		key := string(bodies[i])
		if want, ok := e.golden[key]; ok {
			if !bytes.Equal(r.body, want) {
				return outcome{}, fmt.Errorf("cached reply for %s differs from its first reply", key)
			}
			continue
		}
		if o, err := resultOutcome(r.body); err != nil {
			return outcome{}, err
		} else if !reflect.DeepEqual(o, out) {
			return outcome{}, fmt.Errorf("replies in one batch disagree: %+v vs %+v", o, out)
		}
	}
	out.Counters = counters
	return out, nil
}

// prefill simulates every disk-set spec and the resident spec once: they
// land in the store, fall out of the small RAM tier as the next ones
// arrive, and their replies become the goldens.
func (e *svcEnv) prefill() error {
	for _, body := range append(append([][]byte{}, e.diskBody...), e.ramBody) {
		r, err := e.post(body)
		if err != nil {
			return err
		}
		e.golden[string(body)] = r.body
	}
	return nil
}

// svcFixture starts the server, fills the tiers and defines the three ops.
func svcFixture(seed int64) (*fixture, error) {
	e, err := newSvcEnv(seed)
	if err != nil {
		return nil, err
	}
	if err := e.prefill(); err != nil {
		e.close()
		return nil, err
	}

	cold := opType{name: "cold", refRuns: 1, kernelShare: svcColdShare, do: func(_ int, timed func(func() error) error) (outcome, error) {
		body := svcSpec(e.coldBase + e.coldCount)
		e.coldCount++
		return e.batch([][]byte{body}, timed)
	}}
	disk := opType{name: "disk", refRuns: 1, kernelShare: svcDiskShare, do: func(_ int, timed func(func() error) error) (outcome, error) {
		bodies := make([][]byte, svcDiskBatch)
		for i := range bodies {
			bodies[i] = e.diskBody[e.diskNext]
			e.diskNext = (e.diskNext + 1) % len(e.diskBody)
		}
		return e.batch(bodies, timed)
	}}
	ram := opType{name: "ram", refRuns: 1, kernelShare: svcRAMShare, do: func(_ int, timed func(func() error) error) (outcome, error) {
		// Untimed touch: the cold and disk ops since the last ram op have
		// pushed the resident spec out of the RAM tier.
		if _, err := e.post(e.ramBody); err != nil {
			return outcome{}, err
		}
		bodies := make([][]byte, svcRAMBatch)
		for i := range bodies {
			bodies[i] = e.ramBody
		}
		return e.batch(bodies, timed)
	}}
	return &fixture{ops: []opType{cold, disk, ram}, close: e.close}, nil
}
