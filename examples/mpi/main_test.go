package main

import (
	"fmt"
	"testing"

	"gmsim/internal/mpi"
)

// TestSolverTotals pins the example's output: the solver's result and rank
// 0's finishing instant with stock (host-backed) and NIC-backed MPI. It is
// the one end-to-end run of the layer's host Allreduce over a real program.
func TestSolverTotals(t *testing.T) {
	nicCfg := mpi.DefaultConfig()
	nicCfg.UseNICBarrier = true
	nicCfg.UseNICCollectives = true
	for _, c := range []struct {
		name string
		cfg  mpi.Config
		us   string
	}{
		{"stock", mpi.DefaultConfig(), "13164.03"},
		{"nic", nicCfg, "5920.64"},
	} {
		result, elapsed := run(c.cfg)
		if got := fmt.Sprintf("%.2f", elapsed.Micros()); result != 11700 || got != c.us {
			t.Errorf("%s: result %d in %s µs, want 11700 in %s µs", c.name, result, got, c.us)
		}
	}
}
