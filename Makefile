# gmsim — Fast NIC-Based Barrier over Myrinet/GM, reproduced in Go.
# Standard library only; requires Go >= 1.23.

GO ?= go

.PHONY: all build test vet fma race race-procs fuzz bench perf-gate profile layers profile-scale profile-svc cover figures scenarios cmd-smoke simd-smoke simd-restart-smoke examples clean

all: build vet test

build:
	$(GO) build ./...

# go vet, gofmt, and two structural rules: internal/experiments has one
# run loop, so only run.go builds a session or spawns a rank (a measurement
# is a Spec for Run, its program an Op); and a command under cmd/ builds its
# runs from a service.Spec (Canonicalize, then Experiment or Config) and its
# fabrics from experiments.TopoConfig, never by picking a NIC model, a
# fail-stop testbed or a topology kind itself, or by writing a topo.Spec.
# scripts/layers.go is vetted on its own: its build tag is ignore, so ./...
# leaves it out. The simulation packages' rules (no sync import, no go
# statement, no wall clock, no global rand, map ranges marked order-free) and
# the rule that every export has a caller, resolved by type, are tests in
# static_test.go.
vet:
	$(GO) vet ./...
	$(GO) vet scripts/layers.go
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	@if grep -l -e 'NewSession(' -e '\.Spawn(' -e '\.SpawnAll(' $$(ls internal/experiments/*.go | grep -v -e '_test\.go$$' -e '/run\.go$$'); then \
		echo "the files above build a session or spawn ranks: internal/experiments runs ranks in run.go only"; exit 1; fi
	@if grep -rl --include='*.go' -e 'cluster\.LANai72Config' -e 'experiments\.FailStopTestbed' -e 'topo\.ParseKind' -e 'topo\.Spec{' cmd; then \
		echo "the files above build runs or fabrics by hand: a command's runs go through service.Spec, its fabrics through experiments.TopoConfig"; exit 1; fi

test:
	$(GO) test ./...

# No fused multiply-add in the module's non-test sources on arm64, where the
# compiler fuses x*y + z unless the product is converted (float64(x*y) + z):
# cross-compiles every package's test binary and reads its disassembly.
fma:
	sh scripts/fma_check.sh

race:
	$(GO) test -race ./...

# Race-check the process switch. A simulated process is a coroutine resumed
# by whoever runs its simulator, and the across-cell worker pool runs many
# simulators at once: the full (non -short) sim and cluster suites, gm and
# core (a parked process's port bookkeeping runs from the event loop) plus
# the worker-count determinism matrix run under the detector.
race-procs:
	$(GO) test -race -count=1 ./internal/sim ./internal/cluster ./internal/gm ./internal/core
	$(GO) test -race -count=1 -timeout 30m -run 'Determinism' ./internal/experiments

# Short fuzzing pass over the wire codec, the duplicate-suppression window,
# the fault-plan validator, the result-store entry codec, simd's answer to a
# request body (the body index against a fresh server), the algebraic
# router's spec space, the event queue against its sorted-slice model,
# process programs run ahead of the clock against the same programs settled,
# batched receive-buffer provisioning against the loop of calls it stands
# for, the Chrome exporter's string and timestamp appenders against
# encoding/json, and whole exports of recordings made from arbitrary labels,
# reasons, ids and instants against the reflection encoder (go's fuzzer
# allows one target per invocation).
# Checked-in seed corpora live under each package's testdata/fuzz/.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run=^$$ -fuzz=^FuzzFrameDecode$$ -fuzztime=$(FUZZTIME) ./internal/mcp
	$(GO) test -run=^$$ -fuzz=^FuzzSeqWindow$$ -fuzztime=$(FUZZTIME) ./internal/mcp
	$(GO) test -run=^$$ -fuzz=^FuzzPlanValidate$$ -fuzztime=$(FUZZTIME) ./internal/fault
	$(GO) test -run=^$$ -fuzz=^FuzzStoreEntryDecode$$ -fuzztime=$(FUZZTIME) ./internal/service
	$(GO) test -run=^$$ -fuzz=^FuzzSubmitBody$$ -fuzztime=$(FUZZTIME) ./internal/service
	$(GO) test -run=^$$ -fuzz=^FuzzAlgRouteSpec$$ -fuzztime=$(FUZZTIME) ./internal/topo
	$(GO) test -run=^$$ -fuzz=^FuzzEventQueue$$ -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run=^$$ -fuzz=^FuzzProcLookahead$$ -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run=^$$ -fuzz=^FuzzProvisioning$$ -fuzztime=$(FUZZTIME) ./internal/gm
	$(GO) test -run=^$$ -fuzz=^FuzzChromeString$$ -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run=^$$ -fuzz=^FuzzChromeMicros$$ -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run=^$$ -fuzz=^FuzzChromeRecording$$ -fuzztime=$(FUZZTIME) ./internal/trace

# Coverage with per-package floors. The event engine (internal/sim), the
# fabric (internal/network) and the card (internal/lanai) every run stands
# on, the observability layer (internal/trace), the analytic model
# (internal/model), the fault injector (internal/fault), the topology/routing
# layer (internal/topo, now carrying the algebraic router), the firmware
# (internal/mcp, whose failure paths only a few scenario goldens reach from
# outside) and the simulation service (internal/service, whose dead-letter,
# retry and replay paths only its own tests reach) are the packages most
# likely to rot silently — their statement coverage from their own tests
# must stay at or above COVER_FLOOR.
COVER_FLOOR ?= 80.0
cover:
	$(GO) test -coverprofile=coverage.out -covermode=count ./...
	$(GO) tool cover -func=coverage.out | tail -1
	@for pkg in gmsim/internal/sim gmsim/internal/network gmsim/internal/lanai gmsim/internal/trace gmsim/internal/model gmsim/internal/fault gmsim/internal/topo gmsim/internal/mcp gmsim/internal/service; do \
		pct="$$(awk -v p="$$pkg/" \
			'index($$1, p) == 1 { tot += $$2; if ($$3 > 0) cov += $$2 } \
			END { printf "%.1f", tot ? 100 * cov / tot : 0 }' coverage.out)"; \
		echo "$$pkg: $$pct% of statements (floor $(COVER_FLOOR)%)"; \
		ok="$$(awk -v a="$$pct" -v b="$(COVER_FLOOR)" 'BEGIN { print (a + 0 >= b + 0) ? 1 : 0 }')"; \
		if [ "$$ok" != "1" ]; then \
			echo "coverage for $$pkg below floor"; exit 1; fi; \
	done

# Regenerate every table/figure of the paper's evaluation plus extensions.
figures:
	$(GO) run ./cmd/barrierbench
	$(GO) run ./cmd/timing
	$(GO) run ./cmd/sweep
	$(GO) run ./cmd/gmping
	$(GO) run ./cmd/barrierbench -fig mpi
	$(GO) run ./cmd/barrierbench -fig mpibar
	$(GO) run ./cmd/barrierbench -fig coll
	$(GO) run ./cmd/barrierbench -fig scale
	$(GO) run ./cmd/barrierbench -fig grain
	$(GO) run ./cmd/barrierbench -fig topo
	$(GO) run ./cmd/barrierbench -fig contend

# The repository benchmark (see BENCHMARK.json and bench/README.md): each
# workload at the contract's run length, outputs checked against
# bench/expected.json.
bench:
	$(GO) run ./bench --workload nic16 --seed 1 --seconds 20 --trace 0
	$(GO) run ./bench --workload host16 --seed 1 --seconds 20 --trace 0
	$(GO) run ./bench --workload clos256 --seed 1 --seconds 20 --trace 0
	$(GO) run ./bench --workload svc --seed 1 --seconds 20 --trace 0

# The one performance gate: ./bench of BASE against ./bench of the working
# tree in alternating pairs, judged by BENCHMARK.json's bounds. CI passes the
# PR base; locally: make perf-gate BASE=HEAD~1. LAYOUTS=k judges the
# difference against k function layouts of both sides (see the script).
perf-gate:
	sh scripts/perf_gate.sh $(BASE)

# CPU and allocation profile of the scale path: the benchmark's two 256-node
# cells, twenty whole measurements each; each cell's line also prints B/op and
# allocs/op per measurement. Every allocation is recorded (-memprofilerate 1),
# so alloc_objects and alloc_space are exact counts per site, not samples.
# Read the profiles with
#   go tool pprof -top gmsim.test cpu.prof
#   go tool pprof -sample_index=alloc_space -top gmsim.test mem.prof
#   go tool pprof -sample_index=alloc_objects -top gmsim.test mem.prof
profile:
	$(GO) test -run '^$$' -bench Clos256 -benchtime 20x -cpuprofile cpu.prof \
		-memprofile mem.prof -memprofilerate 1 .

# Where the host time goes: BenchmarkHost16, BenchmarkNic16 and
# BenchmarkClos256 (a simulated barrier), BenchmarkSvcCold (one cold simd request without the
# HTTP front) and BenchmarkObservedRun (the svc cell run plain, then
# observed) under -cpuprofile, every sample folded into the simulator's
# layers (scheduler, process handoff, firmware, fabric, recorder, host,
# service, GC) by scripts/layers.go, one markdown table each. The iteration
# counts are fixed, so two commits' tables compare in seconds.
layers:
	$(GO) run scripts/layers.go Host16=200x Nic16=300x Clos256=20x SvcCold=300x ObservedRun=300x

# CPU profile of the 8192-node scale path: TestTopoScale8192Smoke (a
# radix-32 fat-tree, GB dimension tuned, all four barrier variants measured,
# under a minute). Leaves cpu.prof and experiments.test in the root; read with
#   go tool pprof -top experiments.test cpu.prof
profile-scale:
	$(GO) test -run '^TestTopoScale8192Smoke$$' -count=1 -timeout 30m \
		-cpuprofile cpu.prof -o experiments.test ./internal/experiments

# The same two profiles for one cold simd request without the HTTP front
# (BenchmarkSvcCold: canonicalize, execute observed, export the trace,
# marshal, store on disk), 300 requests, next to the simulation it wraps run
# plain and observed (BenchmarkObservedRun/{plain,observed}, with -benchmem:
# the difference is what recording costs) and a repeated request through the
# handler, answered from the RAM tier (BenchmarkSvcHit).
profile-svc:
	$(GO) test -run '^$$' -bench 'SvcCold|ObservedRun|SvcHit' -benchtime 300x -benchmem \
		-cpuprofile cpu.prof -memprofile mem.prof -memprofilerate 4096 .

# Chaos scenario fleet: the crash-fault regression matrix (topology ×
# barrier kind × fault plan × seed), plus the NIC collectives — the clean
# matrix of collectives.golden and the three collective crash cells — all
# diffed against the goldens under internal/experiments/testdata. On
# divergence each offending got-text is written to $$SCENARIO_DIFF_DIR (when
# set) for CI to upload. Regenerate intentionally changed goldens with
#   go test ./internal/experiments -run 'TestScenarioFleetGolden|TestCollectivesGolden|TestCollectiveCrashGolden' -update-scenarios
scenarios:
	$(GO) test -count=1 -v -timeout 10m \
		-run 'TestScenarioFleetGolden|TestCollectivesGolden|TestCollectiveCrashGolden|TestZeroFaultScenariosMatchFigure5|TestGBBarrierSurvivesNodeCrash|TestScenarioSummariesDeterministic|TestChaosFramesOwnedOnce' \
		./internal/experiments

# The five experiment commands' stdout and -help on cheap deterministic
# invocations, byte-compared with the goldens under cmd/testdata. Regenerate
# on purpose with UPDATE=1 sh scripts/cmd_smoke.sh.
cmd-smoke:
	sh scripts/cmd_smoke.sh

# Boot the simulation service, post the Figure 5 headline spec, pin its
# exact latency, prove the repeat is a cache hit, and check SIGTERM drain.
simd-smoke:
	sh scripts/simd_smoke.sh

# Restart chaos: SIGKILL simd mid-simulation, restart on the same state
# directory, and require byte-identical results from disk with zero
# re-simulation, journal replay of the interrupted job, corruption
# quarantine, and a nonzero exit when the drain timeout is exceeded.
simd-restart-smoke:
	sh scripts/simd_restart_smoke.sh

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/fuzzy
	$(GO) run ./examples/multibarrier
	$(GO) run ./examples/stencil
	$(GO) run ./examples/mpi

clean:
	rm -f test_output.txt coverage.out coverage-summary.txt cpu.prof mem.prof gmsim.test experiments.test
	rm -rf .perf_gate
