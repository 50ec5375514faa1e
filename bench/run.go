package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// sample is one timed op.
type sample struct {
	wallMs float64
	calMs  float64
	allocs uint64
	bytes  uint64
	simUs  float64
	traced bool
}

// runResult is everything one run measured.
type runResult struct {
	workload string
	types    []string
	samples  map[string][]sample
	// refMs holds every reference-kernel reading of the timed phase.
	refMs []float64

	attempted, failed int
	failures          []string

	// setupRawS is wall time from start to the first timed op, less the
	// time spent taking readings. setupCalS is the same stretch
	// calibrated piecewise: the fixture against the readings around it,
	// each warm op against its own.
	setupRawS, setupCalS float64
	timedS               float64
	passesDone, passes   int
}

// maxFailuresShown bounds the failure messages kept for printing.
const maxFailuresShown = 5

// overrunFactor is the safety valve on fixed work: a run on a machine much
// slower than the one the pass counts were sized on stops after the pass
// in which the timed phase exceeds --seconds by this factor, so the
// acceptance driver's total time budget holds.
const overrunFactor = 1.35

// executor runs the ops of one fixture, bracketing each with a reading of
// the machine and sharing a reading between neighbours.
type executor struct {
	w    workload
	fx   *fixture
	exp  expectations
	res  *runResult
	seqs []int
	tr   *tracer
	m    machine

	last     reading
	lastRuns int
	// refSpent is the wall time spent taking readings so far.
	refSpent time.Duration
	// warmCalMs sums the calibrated time of unrecorded (warm) ops.
	warmCalMs float64
}

func (r *executor) read(runs int) (reading, error) {
	sp := r.tr.begin("driver.ref", 0, 0)
	t0 := time.Now()
	v, err := r.m.read(runs)
	r.refSpent += time.Since(t0)
	r.tr.end(sp)
	r.last, r.lastRuns = v, runs
	return v, err
}

// exec performs one op. Its outcome is always checked; its measurements
// are kept only when record is set (warm passes are not recorded). The
// error is the harness's own: a failed op is counted, not returned.
func (r *executor) exec(ti int, record, traced bool) error {
	op := r.fx.ops[ti]
	seq := r.seqs[ti]
	r.seqs[ti]++

	before := r.last
	if r.lastRuns != op.refRuns {
		var err error
		if before, err = r.read(op.refRuns); err != nil {
			return err
		}
	}
	s := sample{traced: traced}
	var tr *tracer // nil, which records nothing, unless this op is traced
	if traced {
		tr = r.tr
	}
	opSpan := tr.begin("op."+r.w.name+"."+op.name, 0, r.res.attempted+1)
	out, err := op.do(seq, func(body func() error) error {
		var m0, m1 runtime.MemStats
		callSpan := tr.begin("call."+r.w.name+"."+op.name, opSpan, r.res.attempted+1)
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		err := body()
		wall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		tr.end(callSpan)
		s.wallMs = wall.Seconds() * 1e3
		s.allocs = m1.Mallocs - m0.Mallocs
		s.bytes = m1.TotalAlloc - m0.TotalAlloc
		return err
	})
	tr.end(opSpan)
	after, rerr := r.read(op.refRuns)
	if rerr != nil {
		return rerr
	}

	r.res.attempted++
	if err == nil {
		err = r.exp.check(r.w.name, op.name, out)
	}
	if err != nil {
		r.res.failed++
		if len(r.res.failures) < maxFailuresShown {
			r.res.failures = append(r.res.failures, err.Error())
		}
		return nil
	}
	s.calMs = calibrate(s.wallMs, before, after, op.kernelShare)
	if !record {
		r.warmCalMs += s.calMs
	} else {
		s.simUs = out.MeanUs
		r.res.samples[op.name] = append(r.res.samples[op.name], s)
		r.res.refMs = append(r.res.refMs, after.cpuMs)
	}
	return nil
}

// runWorkload sets the workload up, warms it and runs the timed passes.
// start is when the process (or, in tests, the call) began: setup_s runs
// from there to the first timed op. With the tracer on, every second
// timed pass records spans.
func runWorkload(w workload, seed int64, seconds float64, exp expectations, start time.Time, tr *tracer) (res *runResult, err error) {
	res = &runResult{workload: w.name, samples: make(map[string][]sample), passes: w.passes(seconds)}

	// Readings around set-up; their own time is not set-up time.
	refStart := time.Now()
	var m machine
	if w.kernelShare > 0 {
		if m.loop, err = newLoopback(); err != nil {
			return nil, err
		}
		defer m.loop.close()
	}
	before, err := m.read(3)
	if err != nil {
		return nil, err
	}
	refTime := time.Since(refStart)

	fx, err := w.setup(seed)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer func() {
		if cerr := fx.close(); cerr != nil && err == nil {
			err = fmt.Errorf("%s: tear-down: %w", w.name, cerr)
		}
	}()
	for _, op := range fx.ops {
		res.types = append(res.types, op.name)
	}
	r := &executor{w: w, fx: fx, exp: exp, res: res, seqs: make([]int, len(fx.ops)), tr: tr, m: m}
	orders := passOrders(seed, w.warmPasses+res.passes, len(fx.ops))
	// The fixture is calibrated against the reading before it and the one
	// after it, which the first op then shares as its own "before".
	fixtureEnd := time.Now()
	after, err := r.read(fx.ops[orders[0][0]].refRuns)
	if err != nil {
		return nil, err
	}
	for _, order := range orders[:w.warmPasses] {
		for _, ti := range order {
			if err := r.exec(ti, false, false); err != nil {
				return nil, err
			}
		}
	}
	res.setupRawS = (time.Since(start) - refTime - r.refSpent).Seconds()
	fixtureS := (fixtureEnd.Sub(start) - refTime).Seconds()
	res.setupCalS = calibrate(fixtureS, before, after, w.kernelShare) + r.warmCalMs/1e3

	timedStart := time.Now()
	for p, order := range orders[w.warmPasses:] {
		traced := tr.on() && p%2 == 1
		for _, ti := range order {
			if err := r.exec(ti, true, traced); err != nil {
				return nil, err
			}
		}
		res.passesDone++
		if time.Since(timedStart).Seconds() > seconds*overrunFactor {
			break
		}
	}
	res.timedS = time.Since(timedStart).Seconds()
	return res, nil
}

// procStatusKB reads one kB-valued line (VmHWM, VmRSS) of
// /proc/self/status.
func procStatusKB(key string) (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", key, err)
			}
			return kb, nil
		}
	}
	return 0, fmt.Errorf("%s not found in /proc/self/status", key)
}

// peakRSSMB is the process's high-water resident set.
func peakRSSMB() (float64, error) {
	kb, err := procStatusKB("VmHWM")
	return kb / 1024, err
}

// currentRSSKB is the process's resident set right now.
func currentRSSKB() (float64, error) { return procStatusKB("VmRSS") }

// field projects one measurement out of a type's samples.
func field(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// overTypes combines a per-type statistic across op types by geometric
// mean, so each type carries equal weight. A type whose every op failed
// has no samples and is left out; the run is reported incorrect anyway.
func (res *runResult) overTypes(stat func([]sample) float64) float64 {
	vals := make([]float64, 0, len(res.types))
	for _, t := range res.types {
		if ss := res.samples[t]; len(ss) > 0 {
			vals = append(vals, stat(ss))
		}
	}
	return geomean(vals)
}

func calMs(s sample) float64  { return s.calMs }
func wallMs(s sample) float64 { return s.wallMs }

// timedOps counts recorded ops.
func (res *runResult) timedOps() int {
	n := 0
	for _, ss := range res.samples {
		n += len(ss)
	}
	return n
}
