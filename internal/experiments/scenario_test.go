package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gmsim/internal/cluster"
	"gmsim/internal/mcp"
	"gmsim/internal/sim"
)

var updateScenarios = flag.Bool("update-scenarios", false,
	"rewrite the golden files under testdata (the chaos fleet's, the collectives')")

// TestScenarioFleetGolden runs the whole chaos matrix and diffs every
// summary against its golden file (see checkGolden). Regenerate after an
// intentional behavior change with
//
//	go test ./internal/experiments -run TestScenarioFleetGolden -update-scenarios
func TestScenarioFleetGolden(t *testing.T) {
	fleet := ScenarioFleet()
	sums, err := RunScenarios(fleet)
	if err != nil {
		t.Fatal(err)
	}
	for i, sum := range sums {
		checkGolden(t, filepath.Join("scenarios", fleet[i].Name+".golden"), sum.String())
	}
}

// checkGolden compares got with testdata/<rel>, or rewrites the file under
// -update-scenarios. On divergence the got-text also goes to
// $SCENARIO_DIFF_DIR (when set) so CI can upload the diffs as an artifact.
func checkGolden(t *testing.T, rel, got string) {
	t.Helper()
	path := filepath.Join("testdata", rel)
	if *updateScenarios {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (regenerate with -update-scenarios)", rel, err)
	}
	if got != string(want) {
		if diffDir := os.Getenv("SCENARIO_DIFF_DIR"); diffDir != "" {
			name := strings.TrimSuffix(filepath.Base(rel), ".golden") + ".got"
			_ = os.MkdirAll(diffDir, 0o755)
			_ = os.WriteFile(filepath.Join(diffDir, name), []byte(got), 0o644)
		}
		t.Errorf("%s diverged from golden\n--- want\n%s--- got\n%s", rel, want, got)
	}
}

// TestZeroFaultScenariosMatchFigure5 pins the zero-fault-cost contract at
// the fleet level: the clean cells attach an (empty) fault plan and run
// with the checked-barrier API, yet their latency must equal the plain
// Figure 5 measurement of the same testbed bit for bit. Any scheduling or
// frame-layout cost leaked by the idle detection machinery breaks this.
func TestZeroFaultScenariosMatchFigure5(t *testing.T) {
	byName := make(map[string]Scenario)
	for _, s := range ScenarioFleet() {
		byName[s.Name] = s
	}
	cases := []struct {
		scen string
		spec Spec
	}{
		{"pe16-clean", Spec{Cluster: cluster.DefaultConfig(16), Level: NICLevel, Alg: mcp.PE, Iters: 20}},
		{"gb16-clean", Spec{Cluster: cluster.DefaultConfig(16), Level: NICLevel, Alg: mcp.GB, Dim: 4, Iters: 20}},
	}
	for _, c := range cases {
		s, ok := byName[c.scen]
		if !ok {
			t.Fatalf("fleet has no scenario %q", c.scen)
		}
		sums, err := RunScenarios([]Scenario{s})
		if err != nil {
			t.Fatal(err)
		}
		sum := sums[0]
		ref := MeasureBarrier(c.spec)
		if sum.MeanMicros != ref.MeanMicros { // bit-exact on purpose
			t.Errorf("%s: scenario mean %.6fµs != Figure 5 measurement %.6fµs",
				c.scen, sum.MeanMicros, ref.MeanMicros)
		}
		if sum.Declared != 0 || sum.Probes != 0 || len(sum.Dead) != 0 {
			t.Errorf("%s: zero-fault run shows detection activity: %+v", c.scen, sum)
		}
	}
}

// TestGBBarrierSurvivesNodeCrash is the acceptance scenario: a 64-node GB
// barrier with a node killed mid-barrier completes among the 63 survivors
// in bounded simulated time, every survivor converges on the same one-node
// dead set, and the whole run is bit-deterministic across reruns.
func TestGBBarrierSurvivesNodeCrash(t *testing.T) {
	scen := Scenario{Name: "gb64-crash21", Spec: Spec{
		Cluster: detectCfg(64, crashPlan(1, 21, sim.FromMicros(700))),
		Alg:     mcp.GB,
		Dim:     4,
		Warmup:  2,
		Iters:   6,
	}}
	sums, err := RunScenarios([]Scenario{scen, scen})
	if err != nil {
		t.Fatal(err)
	}
	a, b := sums[0], sums[1]
	if a.String() != b.String() {
		t.Fatalf("rerun diverged:\n--- first\n%s--- second\n%s", a, b)
	}
	if len(a.Dead) != 1 || a.Dead[0] != 21 {
		t.Errorf("dead set = %v, want [21]", a.Dead)
	}
	if a.Finished != 63 {
		t.Errorf("%d ranks finished, want all 63 survivors", a.Finished)
	}
	if a.Agree != 63 {
		t.Errorf("%d ranks agree on the dead set, want 63", a.Agree)
	}
	if a.Declared != 63 {
		t.Errorf("PeersDeclaredDead = %d, want one declaration per survivor", a.Declared)
	}
	if a.Faults.Crashes != 1 {
		t.Errorf("injector crashed %d nodes, want 1", a.Faults.Crashes)
	}
	// Bounded completion: with a ~3.4ms retry budget, the whole workload —
	// crash, detection, repair, and the remaining barriers — must drain in
	// well under 50ms of simulated time. A hang shows up here (or as a
	// stranded-process panic inside cluster.Run).
	if a.DrainMicros >= 50_000 {
		t.Errorf("cluster drained at %.0fµs; detection/repair did not bound completion", a.DrainMicros)
	}
}

// TestScenarioSummariesDeterministic reruns a crash cell and a chaos cell
// and requires byte-identical summaries — the property the golden files
// rely on.
func TestScenarioSummariesDeterministic(t *testing.T) {
	byName := make(map[string]Scenario)
	for _, s := range ScenarioFleet() {
		byName[s.Name] = s
	}
	for _, name := range []string{"gb16-crash-interior", "gb16-chaos-s1", "pe32-clos2-crash17"} {
		sums, err := RunScenarios([]Scenario{byName[name], byName[name]})
		if err != nil {
			t.Fatal(err)
		}
		if a, b := sums[0], sums[1]; a.String() != b.String() {
			t.Errorf("%s rerun diverged:\n--- first\n%s--- second\n%s", name, a, b)
		}
	}
}
