package service

import (
	"fmt"

	"gmsim/internal/experiments"
	"gmsim/internal/phase"
	"gmsim/internal/stats"
)

// PhaseShare is one row of a result's Section 2.2 decomposition: the
// phase's share of rank 0's critical path over the timed window, plus the
// cluster-wide busy total, both in microseconds.
type PhaseShare struct {
	Phase      string  `json:"phase"`
	CriticalUs float64 `json:"critical_us"`
	TotalUs    float64 `json:"total_us,omitempty"`
}

// Result is the JSON body a completed run serves. For a given canonical
// spec it is byte-deterministic: the simulation is bit-reproducible and
// the encoding is fixed-order, so a cached Result is indistinguishable
// from a fresh one.
type Result struct {
	// Spec is the canonical spec; Hash is its content address (the cache
	// key).
	Spec Spec   `json:"spec"`
	Hash string `json:"hash"`
	// MeanMicros is the mean barrier latency over the timed iterations at
	// rank 0 — the paper's headline metric.
	MeanMicros float64 `json:"mean_us"`
	// Barriers and Retrans are cluster-wide firmware counters.
	Barriers int64 `json:"barriers"`
	Retrans  int64 `json:"retrans"`
	// StartNs and EndNs bound the timed window in simulated nanoseconds.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// Decomposition is the Section 2.2 phase breakdown of the timed window
	// (the trace endpoint serves the full Perfetto form). IdleUs is the
	// unattributed remainder; the rows plus idle sum exactly to the window.
	Decomposition []PhaseShare `json:"decomposition,omitempty"`
	IdleUs        float64      `json:"idle_us,omitempty"`
	// Scenario is the canonical chaos-fleet summary for fail-stop plans:
	// dead sets, survivor agreement, repair work.
	Scenario string `json:"scenario,omitempty"`
	// Traced reports whether a Perfetto trace was captured for this run.
	// Execute always captures one.
	Traced bool `json:"traced"`
}

// Outcome is everything one executed spec produces: the result row, the
// Chrome/Perfetto trace JSON and the cluster's metrics registry.
type Outcome struct {
	Result  Result
	Trace   []byte
	Metrics *stats.Registry
}

// Execute runs one canonical spec to completion through experiments.Run
// and returns its outcome. Every run has the full-stack recorder attached,
// yielding the decomposition, the Perfetto trace and the metrics registry.
// Runs with failure detection on (fail-stop plans) add the scenario
// summary. Timing is bit-identical to the equivalent one-shot CLI run (the
// recorder is passive; the overhead-guard test pins this). A model that
// cannot build or that deadlocks comes back as an error, and so does a spec
// that does not canonicalize (a journal accept written by an older
// simulator may not).
func Execute(s Spec) (Outcome, error) {
	s, err := s.Canonicalize()
	if err != nil {
		return Outcome{}, err
	}
	hash, err := s.hash()
	if err != nil {
		return Outcome{}, err
	}
	espec, err := s.Experiment()
	if err != nil {
		return Outcome{}, err
	}
	run, err := experiments.Run(espec, true)
	if err != nil {
		return Outcome{}, err
	}
	res := Result{
		Spec:       s,
		Hash:       hash,
		MeanMicros: run.MeanMicros,
		Barriers:   run.Barriers,
		Retrans:    run.Retrans,
		StartNs:    int64(run.Start),
		EndNs:      int64(run.End),
		Traced:     true,
	}
	if espec.Cluster.DetectFailures {
		run.Summary.Name = "svc-" + hash[:12]
		res.Scenario = run.Summary.String()
	}
	for ph := phase.Phase(0); ph < phase.NumPhases; ph++ {
		crit := run.Decomp.Critical[ph]
		tot := run.Decomp.Totals[ph]
		if crit == 0 && tot == 0 {
			continue
		}
		res.Decomposition = append(res.Decomposition, PhaseShare{
			Phase:      ph.String(),
			CriticalUs: crit.Micros(),
			TotalUs:    tot.Micros(),
		})
	}
	res.IdleUs = run.Decomp.Idle().Micros()

	var trc traceBuf
	if err := run.Rec.WriteChrome(&trc); err != nil {
		return Outcome{}, fmt.Errorf("service: trace export: %w", err)
	}
	return Outcome{Result: res, Trace: trc, Metrics: run.Metrics}, nil
}

// traceBuf collects an export. WriteChrome hands over the whole trace in one
// Write, so the append is one allocation of the trace's size — what the job
// history and the cache then hold for as long as they hold the entry — and,
// unlike a bytes.Buffer, it does not clear the megabyte it is about to fill.
type traceBuf []byte

func (t *traceBuf) Write(p []byte) (int, error) {
	*t = append(*t, p...)
	return len(p), nil
}
