# The full verification gate: build, vet, the custom invariant
# analyzers (units, locks, determinism — see DESIGN.md §7), the
# race-enabled test suite, and the benchmark module's own vet and tests.
# CI runs the same steps.

GO ?= go

.PHONY: build test lint race chaos benchcheck verify bench bench3 bench4 bench7 bench8 bench9 clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

overprovlint: $(shell find cmd/overprovlint internal/analysis -name '*.go' -not -path '*/testdata/*')
	$(GO) build -o overprovlint ./cmd/overprovlint

# Standalone invariant gate: vet, the seven custom analyzers over the
# shipped sources, then the package-local analyzers over the test files
# too (-tests), so chaos/rotation tests obey the determinism and
# no-dropped-feedback rules. DESIGN.md §7 documents the analyzers.
lint: overprovlint
	$(GO) vet ./...
	./overprovlint ./...
	./overprovlint -tests -analyzers detrand,errfeedback ./...

# `race` also carries the analyzer self-checks: TestSuiteIsCleanOnModule
# and TestEveryAnalyzerHasExercisedFixtures (internal/analysis) fail
# verify if the suite reports anything on the tree or any analyzer's
# fixtures stop producing diagnostics.
race:
	$(GO) test -race ./...

# The fault-injection suite under the race detector: WAL crash matrix
# (a simulated SIGKILL at every filesystem operation), torn-tail and
# corruption recovery, graceful-degradation serving, drain deadlines,
# loadgen retry behaviour, and the WAL shipping / mirror replication
# tests. `make race` already includes these; this target runs only
# them, with -count=1 so chaos is never cached.
CHAOS_PKGS = ./internal/wal/... ./internal/faultinject/... ./internal/server ./internal/router ./internal/repl ./cmd/schedd ./cmd/loadgen
chaos:
	$(GO) test -race -count=1 \
		-run 'Crash|Torn|Chaos|Fault|Recover|Rotate|Halt|Degrade|Drain|Healthz|Retry|DiskFull|BitFlip|Wire|Group|Failover|Promot|Probe|Standby|Stalled|Membership|Replay|Ship|Mirror' \
		$(CHAOS_PKGS)
	$(GO) test -run '^$$' -fuzz FuzzScanRecords -fuzztime 10s ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzRouterSplitMerge -fuzztime 10s ./internal/router/

# Record the benchmark suite into the "current" section of BENCH_2.json:
# every figure bench once, then the throughput bench refined with the
# median of 3 × 2s runs (the same protocol the committed baseline used).
bench:
	$(GO) run ./cmd/benchjson -as current -out BENCH_2.json -bench . -benchtime 1x \
		-note "figure benches single 1x runs; SimulatorThroughput median of 3 x 2s runs"
	$(GO) run ./cmd/benchjson -as current -out BENCH_2.json -merge \
		-bench SimulatorThroughput -benchtime 2s -count 3 \
		-note "figure benches single 1x runs; SimulatorThroughput median of 3 x 2s runs"

# Record the concurrent-serving scaling curves (estimator striping and
# the daemon's single vs batch protocol at 1/2/4/8 goroutines) into the
# "current" section of BENCH_3.json; the committed baseline section was
# captured on the pre-sharding server and is never overwritten.
BENCH3_NOTE = median of 3 x 1s runs; GOMAXPROCS pinned per sub-benchmark; single-core container — see EXPERIMENTS.md
bench3:
	$(GO) run ./cmd/benchjson -as current -out BENCH_3.json \
		-pkg ./internal/estimate -bench ConcurrentEstimator -benchtime 1s -count 3 \
		-note "$(BENCH3_NOTE)"
	$(GO) run ./cmd/benchjson -as current -out BENCH_3.json -merge \
		-pkg ./internal/server -bench ServerSubmitComplete -benchtime 1s -count 3 \
		-note "$(BENCH3_NOTE)"

# Record the multicore serving matrix (BENCH_3's estimator + protocol
# curves plus the swp wire protocol) into the "current" section of
# BENCH_7.json. Run with GOMAXPROCS=8 (or on a machine with >= 4 cores)
# so the scaling curves measure parallelism; benchjson records
# gomaxprocs/num_cpu in the section and refuses to pair sections from
# differing core counts without -allow-cpu-mismatch.
BENCH7_NOTE = median of 3 x 1s runs; GOMAXPROCS pinned per sub-benchmark; see EXPERIMENTS.md §BENCH_7
bench7:
	$(GO) run ./cmd/benchjson -as current -out BENCH_7.json \
		-pkg ./internal/estimate -bench ConcurrentEstimator -benchtime 1s -count 3 \
		-note "$(BENCH7_NOTE)"
	$(GO) run ./cmd/benchjson -as current -out BENCH_7.json -merge \
		-pkg ./internal/server -bench ServerSubmitComplete -benchtime 1s -count 3 \
		-note "$(BENCH7_NOTE)"
	$(GO) run ./cmd/benchjson -as current -out BENCH_7.json -merge \
		-pkg ./internal/server -bench WireSubmitComplete -benchtime 1s -count 3 \
		-note "$(BENCH7_NOTE)"

# Record the durable-serving pair into BENCH_8.json: the baseline
# section is the per-completion-fsync path (wal=record, the only
# durability PR 5's daemon offered) and the current section is the
# group-commit pipeline (wal=group), both measured over a real journal
# on the test tempdir so every number pays actual fsyncs. Unlike the
# other BENCH files, both sections are recorded by this one target —
# the two modes coexist in the same tree and the comparison is the
# point of the pipeline.
BENCH8_NOTE = median of 3 x 1s runs; real fsync on tempdir; GOMAXPROCS pinned per sub-benchmark; see EXPERIMENTS.md §BENCH_8
bench8:
	$(GO) run ./cmd/benchjson -as baseline -out BENCH_8.json \
		-pkg ./internal/server -bench 'DurableSubmitComplete/wal=record' -benchtime 1s -count 3 \
		-note "$(BENCH8_NOTE)"
	$(GO) run ./cmd/benchjson -as current -out BENCH_8.json \
		-pkg ./internal/server -bench 'DurableSubmitComplete/wal=group' -benchtime 1s -count 3 \
		-note "$(BENCH8_NOTE)"

# Record the trace-pipeline benchmarks (SWF parser allocations, memoized
# workload reuse, sweep data-pipeline latency) into the "current" section
# of BENCH_4.json; the committed baseline section was captured on the
# pre-copy-on-write pipeline and is never overwritten.
BENCH4_NOTE = median of 3 x 1s runs; single-core container — see EXPERIMENTS.md
bench4:
	$(GO) run ./cmd/benchjson -as current -out BENCH_4.json \
		-pkg ./internal/trace -bench ReadSWF -benchtime 1s -count 3 \
		-note "$(BENCH4_NOTE)"
	$(GO) run ./cmd/benchjson -as current -out BENCH_4.json -merge \
		-pkg . -bench 'WorkloadCached|LoadSweepSmall' -benchtime 1s -count 3 \
		-note "$(BENCH4_NOTE)"

# Record the distributed-tier numbers into BENCH_9.json: the baseline
# section is mode=direct (clients straight at one schedd node, no
# router — the BENCH_8-era serving path) and the current section is
# mode=routed at backends ∈ {1, 2, 4}. The backends=1 row is the pure
# router-overhead delta (same single estimator, one extra hop); 2 and 4
# measure the scale-out. Loopback on one machine, so the numbers bound
# protocol + fan-out cost, not network or multi-host parallelism — see
# EXPERIMENTS.md §BENCH_9.
BENCH9_NOTE = median of 3 x 1s runs; 4 clients x 64-job batches over loopback swp; single machine — see EXPERIMENTS.md §BENCH_9
bench9:
	$(GO) run ./cmd/benchjson -as baseline -out BENCH_9.json \
		-pkg ./internal/router -bench 'RoutedSubmitComplete/mode=direct' -benchtime 1s -count 3 \
		-note "$(BENCH9_NOTE)"
	$(GO) run ./cmd/benchjson -as current -out BENCH_9.json \
		-pkg ./internal/router -bench 'RoutedSubmitComplete/mode=routed' -benchtime 1s -count 3 \
		-note "$(BENCH9_NOTE)"

# bench/ is its own module (`go run -C bench .`), so the root ./...
# patterns above never reach it: vet and test the harness that gates
# performance claims where it lives.
benchcheck:
	cd bench && $(GO) vet ./... && $(GO) test ./...

verify: build lint race benchcheck

clean:
	rm -f overprovlint
