package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gmsim/internal/cluster"
	"gmsim/internal/experiments"
	"gmsim/internal/topo"
)

// TestCanonicalizeDefaults: the minimal spec fills every default
// explicitly — the Figure 5 16-node testbed.
func TestCanonicalizeDefaults(t *testing.T) {
	c, err := Spec{Nodes: 16}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{
		Topo: "single", Radix: 0, Nodes: 16, NIC: "4.3",
		Level: "nic", Alg: "pe", Dim: 0, TopoAware: false,
		FaultPlan: "none", Seed: 0, Partitions: 1,
		Warmup: 5, Iters: experiments.DefaultIters,
	}
	if c != want {
		t.Fatalf("canonical form:\n got %+v\nwant %+v", c, want)
	}
}

// TestCanonicalEquivalence: specs that describe the same simulation in
// different spellings hash identically — explicit defaults, case and
// legacy NIC names, and fields the chosen algorithm ignores.
func TestCanonicalEquivalence(t *testing.T) {
	base := Spec{Nodes: 16}
	variants := map[string]Spec{
		"explicit defaults": {
			Topo: "single", Nodes: 16, NIC: "4.3", Level: "nic",
			Alg: "pe", FaultPlan: "none", Partitions: 1,
			Warmup: 5, Iters: experiments.DefaultIters,
		},
		"shouting":        {Topo: "SINGLE", Nodes: 16, NIC: "4.3", Level: "NIC", Alg: "PE"},
		"legacy nic name": {Nodes: 16, NIC: "LANai 4.3"},
		// PE ignores the GB tree shape; single ignores radix. Neither may
		// split the cache key.
		"ignored fields": {Nodes: 16, Alg: "pe", Dim: 7, TopoAware: true, Radix: 32},
		// A plan of none has no random streams, so the seed is noise.
		"seed without plan": {Nodes: 16, FaultPlan: "none", Seed: 999},
		// The legacy partitions field: absent (base), 0 and 1 are one spec.
		"partitions 1": {Nodes: 16, Partitions: 1},
		"partitions 0 on the wire": func() Spec {
			var s Spec
			if err := json.Unmarshal([]byte(`{"nodes":16,"partitions":0}`), &s); err != nil {
				t.Fatal(err)
			}
			return s
		}(),
	}
	wantHash, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range variants {
		h, err := v.Hash()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h != wantHash {
			t.Errorf("%s: hash %s, want %s", name, h, wantHash)
		}
	}
}

// TestCanonicalJSONFieldOrder: wire specs with fields in any order decode
// and re-encode to the same canonical bytes.
func TestCanonicalJSONFieldOrder(t *testing.T) {
	bodies := []string{
		`{"nodes": 8, "alg": "gb", "dim": 3}`,
		`{"dim": 3, "alg": "gb", "nodes": 8}`,
		`{"alg": "gb", "nodes": 8, "dim": 3, "topo": "single", "level": "nic"}`,
	}
	var want []byte
	for i, body := range bodies {
		var s Spec
		if err := json.Unmarshal([]byte(body), &s); err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		c, err := s.Canonicalize()
		if err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		got, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Errorf("body %d canonicalizes to %s, want %s", i, got, want)
		}
	}
}

// TestCanonicalizeFills: non-default paths fill their own defaults — GB
// dimension, fault seed, radix on multi-switch fabrics.
func TestCanonicalizeFills(t *testing.T) {
	c, err := Spec{Nodes: 8, Alg: "GB"}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.Alg != "gb" || c.Dim != 2 {
		t.Errorf("GB defaults: alg %q dim %d, want gb 2", c.Alg, c.Dim)
	}
	c, err = Spec{Nodes: 8, FaultPlan: "flap"}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.Seed != DefaultSeed {
		t.Errorf("faulted spec seed %d, want %d", c.Seed, DefaultSeed)
	}
	c, err = Spec{Nodes: 32, Topo: "star"}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.Radix == 0 {
		t.Error("multi-switch spec should fill the default radix")
	}
}

// TestCanonicalizeRejects: unsatisfiable specs error instead of hashing.
func TestCanonicalizeRejects(t *testing.T) {
	bad := map[string]Spec{
		"no nodes":        {},
		"one node":        {Nodes: 1},
		"bad topo":        {Nodes: 16, Topo: "hypercube"},
		"bad nic":         {Nodes: 16, NIC: "9.9"},
		"bad level":       {Nodes: 16, Level: "switch"},
		"bad alg":         {Nodes: 16, Alg: "butterfly"},
		"gb dim too big":  {Nodes: 8, Alg: "gb", Dim: 8},
		"bad fault plan":  {Nodes: 16, FaultPlan: "meteor"},
		"negative warmup": {Nodes: 16, Warmup: -1},
		"negative iters":  {Nodes: 16, Iters: -5},
		// The partitioned engine is gone; a spec it used to accept is
		// refused rather than silently run serial under a different hash.
		"partitions 2": {Topo: "clos2", Radix: 8, Nodes: 32, Partitions: 2},
		// Host-level barriers have no failure detector: they can only
		// deadlock on a fail-stop plan.
		"host crash":     {Nodes: 16, Level: "host", FaultPlan: "crash"},
		"host partition": {Nodes: 16, Level: "host", Alg: "gb", FaultPlan: "partition"},
	}
	for name, s := range bad {
		if _, err := s.Canonicalize(); err == nil {
			t.Errorf("%s: canonicalized without error", name)
		}
	}
	_, err := Spec{Nodes: 16, Level: "host", FaultPlan: "crash"}.Canonicalize()
	if msg := fmt.Sprint(err); !strings.Contains(msg, "host-level") || !strings.Contains(msg, `"crash"`) {
		t.Errorf("host + fail-stop rejection does not name the cause: %v", err)
	}
	_, err = bad["partitions 2"].Canonicalize()
	if msg := fmt.Sprint(err); !strings.Contains(msg, "partitioned engine was removed") {
		t.Errorf("partitions rejection does not name the cause: %v", err)
	}
	// The same plans stay legal at NIC level, and non-fail-stop plans at
	// host level.
	for _, ok := range []Spec{
		{Nodes: 16, FaultPlan: "crash"},
		{Nodes: 16, Level: "host", FaultPlan: "flap"},
	} {
		if _, err := ok.Canonicalize(); err != nil {
			t.Errorf("%+v rejected: %v", ok, err)
		}
	}
}

// TestExperimentCarriesEveryField: Experiment is the only converter, so
// level and tree mapping must survive it under every fault plan — a
// fail-stop spec used to drop both.
func TestExperimentCarriesEveryField(t *testing.T) {
	for _, plan := range PlanNames() {
		s, err := Spec{
			Topo: "clos2", Radix: 8, Nodes: 32, Alg: "gb", Dim: 4,
			TopoAware: true, FaultPlan: plan, Warmup: 3, Iters: 7,
		}.Canonicalize()
		if err != nil {
			t.Fatalf("%s: %v", plan, err)
		}
		e, err := s.Experiment()
		if err != nil {
			t.Fatalf("%s: %v", plan, err)
		}
		if !e.TopoAware || e.Level != experiments.NICLevel || e.Dim != 4 || e.Warmup != 3 || e.Iters != 7 {
			t.Errorf("%s: experiment spec lost fields: %+v", plan, e)
		}
		if e.Cluster.DetectFailures != FailStop(plan) {
			t.Errorf("%s: DetectFailures = %v", plan, e.Cluster.DetectFailures)
		}
	}
	s, err := Spec{Nodes: 8, Level: "host", FaultPlan: "flap"}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if e, _ := s.Experiment(); e.Level != experiments.HostLevel {
		t.Errorf("host level lost: %+v", e)
	}
}

// TestConfigIsTheTestbed: Spec.Config is the cluster the commands built by
// hand before they built through the spec — the Figure 5 testbed of the NIC
// model, a multi-switch fabric's Switch and Topology copied on from
// experiments.TopoConfig, and the named plan on the reliable barrier or on
// experiments.FailStopTestbed — for every size, NIC, plan and kind they
// ran. A zero-fault single-crossbar spec is the Figure 5 testbed itself.
func TestConfigIsTheTestbed(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		for _, nic := range []string{"4.3", "7.2"} {
			for _, plan := range PlanNames() {
				for _, kind := range []topo.Kind{topo.Single, topo.Star, topo.Clos2, topo.Clos3} {
					s := Spec{Topo: kind.String(), Nodes: n, NIC: nic, FaultPlan: plan}
					c, err := s.Canonicalize()
					if err != nil {
						t.Fatalf("%+v: %v", s, err)
					}
					got, err := c.Config()
					if err != nil {
						t.Fatalf("%+v: %v", c, err)
					}

					want := cluster.DefaultConfig(n)
					if nic == "7.2" {
						want = cluster.LANai72Config(n)
					}
					if kind != topo.Single {
						tc := experiments.TopoConfig(kind, n, topo.DefaultRadix)
						want.Switch, want.Topology = tc.Switch, tc.Topology
					}
					if FailStop(plan) {
						want = experiments.FailStopTestbed(want)
					} else if plan != PlanNone {
						want.ReliableBarrier = true
					}
					if want.Fault, err = NamedPlan(plan, DefaultSeed, n); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%d nodes, LANai %s, %s plan, %s: Config differs\n got %+v\nwant %+v",
							n, nic, plan, kind, got, want)
					}
				}
			}
		}
	}
}

// TestGoldenFigure5Hash pins the content address of the paper's headline
// experiment. If this golden file changes, every cached result in every
// deployed simd is invalidated: bump it only with a deliberate spec-format
// change, never as a test fix.
func TestGoldenFigure5Hash(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "figure5_16node.hash"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(raw))
	got, err := Spec{Nodes: 16}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("16-node Figure 5 spec hashes to %s, golden file says %s", got, want)
	}
}

// TestNamedPlanVocabulary: every advertised plan name builds (or is nil
// for none), and FailStop splits them correctly.
func TestNamedPlanVocabulary(t *testing.T) {
	for _, name := range PlanNames() {
		p, err := NamedPlan(name, DefaultSeed, 16)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if (p == nil) != (name == PlanNone) {
			t.Errorf("%s: plan nil=%v", name, p == nil)
		}
	}
	if FailStop(PlanFlap) || !FailStop(PlanCrash) || !FailStop(PlanPartition) {
		t.Error("FailStop misclassifies the plan vocabulary")
	}
	if _, err := NamedPlan("meteor", 1, 16); err == nil {
		t.Error("unknown plan name accepted")
	}
}
