# Build/test/benchmark entry points. CI (.github/workflows/ci.yml)
# runs the same commands.

GO ?= go

.PHONY: build test vet lint race loc bench-sim bench-short bench-check bench-pair cover fuzz-smoke diff-fuzz serve serve-test cluster-test e2e-smoke soak all

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the project's own analyzer suite (cmd/bplint): kernel
# purity, chunk-boundary cancellation, index geometry, determinism,
# codec error discipline, lock discipline (//bplint:guardedby),
# goroutine lifecycle, atomic/plain access mixing, HTTP response
# discipline, and resource pairing. -staleignores keeps the
# suppression inventory honest: an //bplint:ignore that no longer
# suppresses anything fails the build until it is deleted. See
# README.md "Static analysis" and DESIGN.md §14. gofmt runs first:
# any file it would reformat fails the target.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/bplint -staleignores ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# loc prints the non-test Go line count that CHANGES.md entries and
# ROADMAP.md's "Net state" quote: tracked .go files minus tests,
# testdata fixtures, and the e2ebench module.
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '/testdata/' | grep -v '^e2ebench/' | xargs cat | wc -l

# serve runs the sweep service locally (README "Sweep service").
SERVE_ADDR ?= :8149
SERVE_DATA ?= ./bpserved-data

serve:
	$(GO) run ./cmd/bpserved -listen $(SERVE_ADDR) -data $(SERVE_DATA)

# serve-test runs the service subsystem's full suite — concurrency
# stress, drain/restart, golden interop, and the binary-level SIGTERM
# integration test — under the race detector.
serve-test:
	$(GO) test -race ./internal/service/ ./cmd/bpserved/

# cluster-test runs the distributed-sweep subsystem under the race
# detector: ring/key/coordinator unit tests, the HTTP transport
# end-to-end, and the failure-injection (chaos) scenarios, every one
# of which must reproduce the single-node artifacts byte for byte.
cluster-test:
	$(GO) test -race -count=1 ./internal/cluster/

# e2e-smoke builds, vets, and smoke-tests the end-to-end benchmark
# harness. e2ebench/ is its own module, so the root build and test
# never compile it; this target catches a removed or renamed export it
# depends on before the benchmark pipeline does.
e2e-smoke:
	cd e2ebench && $(GO) vet ./... && $(GO) test ./...

# soak extends the trace-plane churn test (concurrent uploads, sweeps,
# cancels, and decoded-cache eviction over a mixed resident/streaming
# trace population, with a mid-flight drain + restart) to a sustained
# window under the race detector. The same test runs as a short smoke
# in the normal suite; BPRED_SOAK=1 widens the churn window.
soak:
	BPRED_SOAK=1 $(GO) test -race -count=1 -run TestSoakUploadSweepEvict ./internal/service/

# bench-short is the smoke-level benchmark pass CI runs: one
# iteration of everything, just to keep the benchmarks compiling and
# non-crashing.
bench-short:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-sim measures the simulation engine (generic vs batched
# kernels per scheme, one multi-config gshare sweep, the per-tier
# gshare sweep of the Figure-4 benchmark workload, and one tier-8
# sweep per modern family), the trace plane under a streamed sweep
# (upload ingest, BPT2 decode, streamed gshare sweep), the BPC1 ledger
# of the Figure-4 workload (flush, lookup) and job-spec expansion, and
# records the results as BENCH_sim.json so the perf trajectory is
# tracked across PRs. Each series runs five times; benchjson writes
# its median and quartiles.
BENCH_PATTERN = BenchmarkKernels|BenchmarkSweepChunked|BenchmarkSweepTiers|BenchmarkSweepModern|BenchmarkTracePlane|BenchmarkLedger|BenchmarkJobSpec

# BENCH_CPU, when set, is the GOMAXPROCS list bench-sim, bench-check
# and bench-pair run every series at (go test -cpu), for example
# BENCH_CPU=1,2; benchjson keeps each CPU count its own series. Empty
# runs at the host's GOMAXPROCS.
BENCH_CPU ?=

bench-sim:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 1s -count 5 $(if $(BENCH_CPU),-cpu $(BENCH_CPU)) . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_sim.json

# bench-check is the perf-regression gate: rerun the tracked
# benchmarks and fail if any series' speed (MB/s, or ops/s for a
# benchmark that sets no bytes) dropped more than BENCH_TOL percent
# below its median in the checked-in BENCH_sim.json. BENCH_TIME can be
# shortened for smoke-level CI runs (noisier, hence the wide default
# tolerance there — see .github/workflows/ci.yml).
BENCH_TOL ?= 15
BENCH_TIME ?= 1s

bench-check:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime $(BENCH_TIME) $(if $(BENCH_CPU),-cpu $(BENCH_CPU)) . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -check -baseline BENCH_sim.json -tolerance $(BENCH_TOL)

# bench-pair measures the change, not the host. It exports BASE with
# git archive, copies this tree's bench_test.go into the export so both
# sides run the same benchmark code, builds both root-package test
# binaries, and runs PAIR_N rounds of BENCH_PATTERN, alternating which
# side runs first. benchjson -pair then prints, per series, the base
# median and quartiles, the change median, the median change/base
# ratio and the rounds won, and fails a series that ran slower in at
# least 8 of 10 rounds with its median below the base's lower quartile:
#
#	make bench-pair BASE=HEAD~1 BENCH_PATTERN='BenchmarkKernels/gshare/'
PAIR_N ?= 10
PAIR_DIR = .bench_pair

bench-pair:
	@test -n "$(BASE)" || { echo "usage: make bench-pair BASE=<rev> [PAIR_N=10] [BENCH_PATTERN=...] [BENCH_TIME=1s] [BENCH_CPU=1,2]"; exit 2; }
	rm -rf $(PAIR_DIR) && mkdir -p $(PAIR_DIR)/base
	git archive $(BASE) | tar -x -C $(PAIR_DIR)/base
	cp bench_test.go $(PAIR_DIR)/base/
	cd $(PAIR_DIR)/base && $(GO) test -c -o ../base.test .
	$(GO) test -c -o $(PAIR_DIR)/change.test .
	@for i in $$(seq 1 $(PAIR_N)); do \
		if [ $$((i % 2)) = 1 ]; then order="base change"; else order="change base"; fi; \
		for side in $$order; do \
			echo "round $$i: $$side" >&2; \
			$(PAIR_DIR)/$$side.test -test.run '^$$' -test.bench '$(BENCH_PATTERN)' \
				-test.benchtime $(BENCH_TIME) $(if $(BENCH_CPU),-test.cpu $(BENCH_CPU)) >> $(PAIR_DIR)/$$side.txt || exit 1; \
		done; \
	done
	$(GO) run ./cmd/benchjson -pair $(PAIR_DIR)/base.txt $(PAIR_DIR)/change.txt

# COVER_FLOOR is ~10 points below current coverage of the execution
# core (sim, sweep, checkpoint, obs sit at ~92%); the gate catches
# accidental deletion of the cancellation/resume/robustness test
# layer, not routine drift. The analyzer suite (internal/analysis/...)
# is in the gate too: its fixtures are the proof the invariants are
# actually enforced.
COVER_FLOOR = 80

# -coverpkg spans the gated set so cross-package exercise counts: the
# analyzer fixtures drive load/analysistest, and cmd/bplint's smoke
# test drives the bplint driver package.
COVER_PKGS = ./internal/sim/,./internal/sweep/,./internal/checkpoint/,./internal/obs/,./internal/analysis/...,./internal/service/,./internal/counter/,./internal/cluster/,./internal/trace/,./internal/core/

cover:
	$(GO) test -coverprofile=coverage.out -coverpkg=$(COVER_PKGS) \
		./internal/sim/ ./internal/sweep/ ./internal/checkpoint/ ./internal/obs/ \
		./internal/analysis/... ./cmd/bplint/ ./internal/service/ ./internal/counter/ \
		./internal/cluster/ ./internal/trace/ ./internal/core/
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% below floor $(COVER_FLOOR)%"; exit 1; }

# fuzz-smoke gives each fuzz target a short budget — enough to catch
# shallow decoder regressions on every CI run without open-ended fuzz
# time.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzReader$$' -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz 'FuzzRoundTrip$$' -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzReader2 -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzRoundTrip2 -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzIndex2 -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzRead -fuzztime 10s ./internal/checkpoint/
	$(GO) test -run '^$$' -fuzz FuzzRoundTrip -fuzztime 10s ./internal/checkpoint/
	$(GO) test -run '^$$' -fuzz FuzzKeyCodec -fuzztime 10s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz FuzzCheckpointFileName -fuzztime 10s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz FuzzDiffTAGE -fuzztime 10s ./internal/refmodel/diff/
	$(GO) test -run '^$$' -fuzz FuzzDiffPerceptron -fuzztime 10s ./internal/refmodel/diff/
	$(GO) test -run '^$$' -fuzz FuzzDiffTournament -fuzztime 10s ./internal/refmodel/diff/
	$(GO) test -run '^$$' -fuzz FuzzKernelEquivalence -fuzztime 10s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzStreamEquivalence -fuzztime 10s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzParseConfig -fuzztime 10s ./internal/core/

# diff-fuzz differentially fuzzes every scheme family against the
# independent reference model (internal/refmodel): random traces,
# geometries, warmups, and chunk sizes must produce bit-identical
# metrics between the batched kernels and the oracle. DIFF_FUZZTIME
# is per family.
DIFF_FUZZTIME ?= 60s

diff-fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDiffAddress -fuzztime $(DIFF_FUZZTIME) ./internal/refmodel/diff/
	$(GO) test -run '^$$' -fuzz FuzzDiffGlobal -fuzztime $(DIFF_FUZZTIME) ./internal/refmodel/diff/
	$(GO) test -run '^$$' -fuzz FuzzDiffGShare -fuzztime $(DIFF_FUZZTIME) ./internal/refmodel/diff/
	$(GO) test -run '^$$' -fuzz FuzzDiffPath -fuzztime $(DIFF_FUZZTIME) ./internal/refmodel/diff/
	$(GO) test -run '^$$' -fuzz FuzzDiffPerAddress -fuzztime $(DIFF_FUZZTIME) ./internal/refmodel/diff/
	$(GO) test -run '^$$' -fuzz FuzzDiffTAGE -fuzztime $(DIFF_FUZZTIME) ./internal/refmodel/diff/
	$(GO) test -run '^$$' -fuzz FuzzDiffPerceptron -fuzztime $(DIFF_FUZZTIME) ./internal/refmodel/diff/
	$(GO) test -run '^$$' -fuzz FuzzDiffTournament -fuzztime $(DIFF_FUZZTIME) ./internal/refmodel/diff/
