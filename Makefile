GO ?= go
PR ?= 34

# MONITOR_ALLOC_BUDGET is the allocs/op ceiling for the steady-state
# monitoring round benchmark. A capture runs on one goroutine, so the round
# allocates nothing at any parallelism; the budget matches the ≤2 of
# TestMonitorOnceAllocationBudget and leaves room for runtime noise only.
MONITOR_ALLOC_BUDGET ?= 2

# CALIB_ALLOC_BUDGET is the allocs/op ceiling for a warm re-enrollment
# (BenchmarkCalibrate re-calibrates a standing link on the arena path). A
# link enrolls on one goroutine, so the 16 captures of both endpoints cost
# 16 allocs/op at any parallelism; the budget leaves room for runtime noise
# only. The looser per-capture ≤4 budget is TestCalibrateAllocationBudget's.
CALIB_ALLOC_BUDGET ?= 20

# HERD_ALLOC_BUDGET is the allocs/op ceiling for one warm whole-fleet attest
# through divotherd over 4 daemons and 1000 buses (BenchmarkFederatedAttest,
# daemons and harness included). About 3000 of them are the bus-id strings
# decoded once each by the daemons, the herd and the harness; the budget is
# the measured 3816 plus runtime noise.
HERD_ALLOC_BUDGET ?= 3820

# FLEET_ALLOC_BUDGET is the allocs/op ceiling for one warm fleet pass of the
# daemon round path over 100 light-instrument buses
# (BenchmarkFleetScheduler/links=100: attack check, engine round, reactor,
# metrics, attestation-cache refresh). The budget is the measured 3138 plus
# runtime noise; most of it is metric label-key strings (ROADMAP item 3).
FLEET_ALLOC_BUDGET ?= 3140

# BENCH_MAX_REGRESS is the percentage any guarded benchmark's ns/B/allocs
# may grow over the recorded BENCH_$(PR).json snapshot before bench-guard
# fails. Generous because shared CI runners show up to ~1.6× wall-clock
# scatter between runs (measured on the reference box); B/op and allocs/op
# are noise-free, so allocation growth is the signal this mostly exists
# for — a genuine 2× time regression still trips it.
BENCH_MAX_REGRESS ?= 100

.PHONY: all build test race bench bench-guard bench-experiments bench-snapshot fuzz-short vet \
	quality-guard quality-baseline experiments

all: build test

## build: compile every package and the divotbench CLI
build:
	$(GO) build ./...

## test: the tier-1 gate — build everything and run the full test suite
test: build
	$(GO) test ./...

## race: run the facade (whose Authenticate serves every attestation), the
## internal suites (core, exper, itdr, ...), the daemon / scheduler paths, and
## the client SDK under the race detector
race:
	$(GO) test -race . ./internal/... ./cmd/... ./client/...

## bench: run every benchmark once (experiment tables + hot-path micros);
## -short keeps the 1000-bus fleet sweep and the big federation rows out of
## the smoke pass
bench:
	$(GO) test -short . ./internal/daemon ./cmd/divotherd -run XXX -bench . -benchtime 1x -benchmem

## bench-guard: fail if a hot path leaks allocation back in or regresses
## past the recorded snapshot — benchsnap -max-allocs checks the monitoring
## round, the spot check and warm re-calibration against their budgets, and
## -compare diffs them and the capture kernel (ReflectionSynthesis,
## IIPMeasurement) against BENCH_$(PR).json with a $(BENCH_MAX_REGRESS)%
## ceiling. The snapshot was recorded at one proc, so both targets pin
## -cpu 1 to keep ns/op comparable with it. A spot check captures on one
## goroutine like a monitoring round, so it gets the round's ≤2 allocs/op.
## A warm federated attest through the herd is held to HERD_ALLOC_BUDGET,
## and a warm 100-bus daemon fleet pass to FLEET_ALLOC_BUDGET
bench-guard:
	$(GO) test . -run XXX -bench 'MonitorRound$$|Calibrate$$|ReflectionSynthesis$$|IIPMeasurement$$|Authenticate$$' -benchtime 20x -benchmem -cpu 1 \
		| $(GO) run ./cmd/benchsnap \
			-max-allocs 'MonitorRound=$(MONITOR_ALLOC_BUDGET)' \
			-max-allocs 'Authenticate=2' \
			-max-allocs 'Calibrate=$(CALIB_ALLOC_BUDGET)' \
			-compare BENCH_$(PR).json -max-regress $(BENCH_MAX_REGRESS) > /dev/null
	$(GO) test ./cmd/divotherd -run XXX -bench 'FederatedAttest/daemons=4/buses=1000$$' -benchtime 20x -benchmem -cpu 1 \
		| $(GO) run ./cmd/benchsnap \
			-max-allocs 'FederatedAttest/daemons=4/buses=1000=$(HERD_ALLOC_BUDGET)' > /dev/null
	$(GO) test ./internal/daemon -run XXX -bench 'FleetScheduler/links=100$$' -benchtime 20x -benchmem -cpu 1 \
		| $(GO) run ./cmd/benchsnap \
			-max-allocs 'FleetScheduler/links=100=$(FLEET_ALLOC_BUDGET)' > /dev/null

## bench-snapshot: record the hot-path micro-benchmarks plus the full
## federated-attest sweep (1/4/16 daemons × 1k/10k/100k buses — the big rows
## calibrate 100k buses first, so this runs for tens of minutes) as
## machine-readable JSON (BENCH_$(PR).json) for cross-PR diffing
bench-snapshot:
	{ $(GO) test -short . ./internal/daemon -run XXX -bench 'IIPMeasurement|ReflectionSynthesis|Similarity|ErrorFunction|MonitorRound|MonitorAll|Authenticate$$|ClientRoundTrip|FleetScheduler|Attest$$|FleetHealth|DaemonStartup|Calibrate$$' -benchtime 20x -benchmem -cpu 1 ; \
	  $(GO) test ./internal/daemon -run XXX -bench 'FleetColdStart' -benchtime 1x -benchmem -cpu 1 -timeout 30m ; \
	  $(GO) test ./internal/daemon -run XXX -bench 'EventFanout' -benchmem -cpu 1 ; \
	  $(GO) test ./cmd/divotherd -run XXX -bench 'FederatedAttest' -benchtime 1x -benchmem -cpu 1 -timeout 90m ; } \
		| $(GO) run ./cmd/benchsnap > BENCH_$(PR).json

# EventFanout runs on the default time-based benchtime, not 20x: its
# cores/frames-per-second metrics only mean anything once the warmup and
# drain amortize across hundreds of thousands of publishes.

## bench-experiments: the fleet campaign benchmarks used in EXPERIMENTS.md's
## performance table; pipe through benchstat to compare runs
bench-experiments:
	$(GO) test . -run XXX -bench 'Fig7|Fig8|Vibration|EMI|CloneResistance|IIPMeasurement|MonitorAll' -benchtime 3x

## fuzz-short: a quick native-fuzzing pass over the adversarial-input
## decoders — the snapshot envelope, the WAL record scanner/replayer, and the
## binary stream frame codec must never panic or fabricate a record on
## adversarial bytes, the stream subscribe handshake must fail or yield a
## value its own JSON re-parses to, the attest codec's ParseBody and
## ReadAttestRequest must return exactly what the encoding/json oracle
## returns, and a fleet spec file must either fail to load or validate (CI
## runs this on every push)
fuzz-short:
	$(GO) test ./internal/store -run XXX -fuzz FuzzDecodeSnapshot -fuzztime 10s
	$(GO) test ./internal/store -run XXX -fuzz FuzzScanRecord -fuzztime 10s
	$(GO) test ./internal/store -run XXX -fuzz FuzzWALReplay -fuzztime 10s
	$(GO) test ./internal/wire -run XXX -fuzz FuzzDecodeFrame -fuzztime 10s
	$(GO) test ./internal/wire -run XXX -fuzz FuzzParseSubscribeRequest -fuzztime 10s
	$(GO) test ./internal/attest -run XXX -fuzz FuzzParseBody -fuzztime 10s
	$(GO) test ./internal/attest -run XXX -fuzz FuzzReadAttestRequest -fuzztime 10s
	$(GO) test ./internal/daemon -run XXX -fuzz FuzzLoadSpec -fuzztime 10s

## quality-guard: fail if detection quality regressed — divotlab re-runs the
## short fixed-seed grid and compares every cell's TPR/FPR and every ROC
## curve's AUC against the checked-in baseline (CI runs this on every push)
quality-guard:
	$(GO) run ./cmd/divotlab guard \
		-config experiments/grids/quality.json -baseline QUALITY_BASELINE.json

## quality-baseline: re-record QUALITY_BASELINE.json after a *deliberate*
## detector change (review the TPR/FPR diff before committing it)
quality-baseline:
	$(GO) run ./cmd/divotlab run \
		-config experiments/grids/quality.json -out QUALITY_BASELINE.json

## experiments: regenerate the detection-quality report and splice its
## ROC/operating-point tables into EXPERIMENTS.md between the divotlab markers
experiments:
	$(GO) run ./cmd/divotlab run \
		-config experiments/grids/roc.json \
		-out experiments/detection_quality.json -markdown EXPERIMENTS.md

vet:
	$(GO) vet ./...
