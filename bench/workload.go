package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"

	"gmsim/internal/experiments"
	"gmsim/internal/service"
)

// outcome is what one op produced, as far as the output check cares: the
// simulated result and, for the service workload, which cache tier served
// it. Simulated numbers are bit-deterministic, so the check is equality.
type outcome struct {
	MeanUs   float64 `json:"mean_us"`
	Barriers int64   `json:"barriers"`
	Retrans  int64   `json:"retrans"`
	// Counters holds /metrics deltas and X-Cache tallies over the op
	// (svc only).
	Counters map[string]int64 `json:"counters,omitempty"`
}

// expectedJSON pins, per workload and op type, the outcome every op of
// that type must produce.
//
//go:embed expected.json
var expectedJSON []byte

type expectations map[string]map[string]outcome

func loadExpectations() (expectations, error) {
	var e expectations
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return e, nil
}

// check compares an op's outcome with the pinned one.
func (e expectations) check(workload, op string, got outcome) error {
	want, ok := e[workload][op]
	if !ok {
		return fmt.Errorf("%s/%s: no pinned expectation", workload, op)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s/%s: got %+v, want %+v", workload, op, got, want)
	}
	return nil
}

// opType is one named kind of operation in a workload. do performs the op
// for the seq-th time; it wraps the part that counts in timed, and may do
// untimed preparation and verification around it.
type opType struct {
	name string
	// refRuns is the number of reference-kernel runs on each side of the
	// op.
	refRuns int
	// kernelShare is the weight of the loopback kernel in this type's
	// calibration: 0 for pure user-space work.
	kernelShare float64
	do          func(seq int, timed func(body func() error) error) (outcome, error)
}

// fixture is a workload set up and ready to run.
type fixture struct {
	ops   []opType
	close func() error
}

// workload describes one benchmark workload. The work of a run is fixed by
// --seconds alone: passes = passesPerSecond × seconds, so two commits run
// the same ops and their counts, memory and service history compare.
type workload struct {
	name string
	// passesPerSecond sizes a run so that the timed phase lasts about
	// --seconds on the seed commit in the container the benchmark was
	// defined on.
	passesPerSecond float64
	// warmPasses run untimed before the first timed pass; they are part of
	// setup_s.
	warmPasses int
	// setupChildren is the number of fresh processes that repeat set-up
	// before the measuring process does its own; setup_s is the median of
	// all of them. A fresh process pays lazy initialisation (topology
	// memo, route tables, HTTP stack) every time, as a user starting the
	// program does; repeating set-up in one process would not. Cheap
	// set-ups are repeated more often: each repeat buys steadiness and
	// the whole must fit the run-time budget.
	setupChildren int
	// kernelShare calibrates set-up; a workload with a non-zero share
	// gets a loopback kernel attached to its readings.
	kernelShare float64
	setup       func(seed int64) (*fixture, error)
}

func workloads() []workload {
	return []workload{
		{name: "nic16", passesPerSecond: 13.2, warmPasses: 3, setupChildren: 7, setup: simFixture(nic16Cells)},
		{name: "host16", passesPerSecond: 3.9, warmPasses: 2, setupChildren: 5, setup: simFixture(host16Cells)},
		{name: "clos256", passesPerSecond: 1.1, warmPasses: 1, setupChildren: 3, setup: simFixture(clos256Cells)},
		{name: "svc", passesPerSecond: 16.5, warmPasses: 3, setupChildren: 4, kernelShare: svcColdShare, setup: svcFixture},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// passes is the fixed amount of work --seconds buys: at least one pass
// for any positive length, none for the set-up-only child.
func (w workload) passes(seconds float64) int {
	if seconds <= 0 {
		return 0
	}
	return max(1, int(w.passesPerSecond*seconds+0.5))
}

// passOrders returns the op-type order of each pass: a seeded shuffle, so
// no type always runs in the wake of the same neighbour.
func passOrders(seed int64, passes, types int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, passes)
	for p := range out {
		out[p] = rng.Perm(types)
	}
	return out
}

// cell is a simulation measured directly through the experiments harness,
// described in the service's wire form so the benchmark binds to the same
// spec vocabulary as the CLIs and simd.
type cell struct {
	name string
	spec string
}

var nic16Cells = []cell{
	{"pe_l43", `{"nodes":16,"nic":"4.3","level":"nic","alg":"pe","warmup":5,"iters":200}`},
	{"gb2_l43", `{"nodes":16,"nic":"4.3","level":"nic","alg":"gb","dim":2,"warmup":5,"iters":200}`},
	{"pe_l72", `{"nodes":16,"nic":"7.2","level":"nic","alg":"pe","warmup":5,"iters":200}`},
	{"gb2_l72", `{"nodes":16,"nic":"7.2","level":"nic","alg":"gb","dim":2,"warmup":5,"iters":200}`},
}

var host16Cells = []cell{
	{"pe_l43", `{"nodes":16,"nic":"4.3","level":"host","alg":"pe","warmup":5,"iters":200}`},
	{"gb2_l43", `{"nodes":16,"nic":"4.3","level":"host","alg":"gb","dim":2,"warmup":5,"iters":200}`},
	{"pe_l72", `{"nodes":16,"nic":"7.2","level":"host","alg":"pe","warmup":5,"iters":200}`},
	{"gb2_l72", `{"nodes":16,"nic":"7.2","level":"host","alg":"gb","dim":2,"warmup":5,"iters":200}`},
}

// clos256Cells: gb4_build is dominated by topology, routing, cluster
// construction and receive-token provisioning (20 barriers on top);
// pe_steady adds enough barriers that steady-state events at queue depth
// ∝ n over 5-hop routes are the larger share.
var clos256Cells = []cell{
	{"gb4_build", `{"topo":"clos3","radix":16,"nodes":256,"alg":"gb","dim":4,"topo_aware":true,"warmup":2,"iters":20}`},
	{"pe_steady", `{"topo":"clos3","radix":16,"nodes":256,"alg":"pe","warmup":5,"iters":100}`},
}

// canonical decodes and canonicalizes a wire-form spec.
func canonical(specJSON string) (service.Spec, error) {
	var s service.Spec
	if err := json.Unmarshal([]byte(specJSON), &s); err != nil {
		return service.Spec{}, fmt.Errorf("spec %s: %w", specJSON, err)
	}
	c, err := s.Canonicalize()
	if err != nil {
		return service.Spec{}, fmt.Errorf("spec %s: %w", specJSON, err)
	}
	return c, nil
}

// experimentSpec converts a wire-form spec into the harness's measurement
// spec.
func experimentSpec(specJSON string) (experiments.Spec, error) {
	c, err := canonical(specJSON)
	if err != nil {
		return experiments.Spec{}, err
	}
	return c.Experiment()
}

// refRunsLong brackets ops longer than half a second with ≥10 ms of
// reference kernel.
const refRunsLong = 8

// simFixture builds a workload whose ops are MeasureBarrier calls. The seed
// plays no part in the inputs: the cells are the paper's, fixed.
func simFixture(cells []cell) func(int64) (*fixture, error) {
	return func(int64) (*fixture, error) {
		fx := &fixture{close: func() error { return nil }}
		for _, c := range cells {
			spec, err := experimentSpec(c.spec)
			if err != nil {
				return nil, err
			}
			refRuns := 1
			if spec.Cluster.Nodes > 64 {
				refRuns = refRunsLong
			}
			fx.ops = append(fx.ops, opType{
				name:    c.name,
				refRuns: refRuns,
				do: func(_ int, timed func(func() error) error) (outcome, error) {
					var r experiments.Result
					err := timed(func() error {
						r = experiments.MeasureBarrier(spec)
						return nil
					})
					return outcome{MeanUs: r.MeanMicros, Barriers: r.Barriers, Retrans: r.Retrans}, err
				},
			})
		}
		return fx, nil
	}
}
