# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check build vet bench-vet lint lint-facts lint-baseline test test-short test-race test-faults cover fuzz-smoke bench bench-smoke serve-smoke reproduce reproduce-fast examples fmt

all: check

# check is the gate for a change, in order: compile, go vet, go vet over the
# benchmark module (bench-vet), the repo's own determinism analyzers
# (cmd/liquidlint — see DESIGN.md "Static invariants"), the lint baseline
# ratchet (lint-facts), tests, the race detector over the
# parallel engine and election sampling, the coverage floor against
# COVERAGE.baseline, a short fuzz pass over the simulator's
# message-validation invariants and the convolution kernels, and a
# one-iteration smoke run of the kernel benchmarks (catches crashes in
# benchmark-only code paths, not timings).
# Lint sits between vet and test so cheap structural violations fail the
# gate before the expensive suites run. The recipe runs every stage it can
# reach, prints a one-line pass/fail summary, and exits nonzero on the
# first failure (later stages report as skip).
check:
	@rc=0; summary=""; \
	for stage in build vet bench-vet lint lint-facts test test-race cover fuzz-smoke bench-smoke serve-smoke; do \
		if [ $$rc -ne 0 ]; then summary="$$summary $$stage:skip"; continue; fi; \
		echo "== $$stage"; \
		if $(MAKE) --no-print-directory $$stage; then summary="$$summary $$stage:ok"; \
		else summary="$$summary $$stage:FAIL"; rc=1; fi; \
	done; \
	echo "check:$$summary"; exit $$rc

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# bench-vet compiles and vets bench/, which is its own module (bench/go.mod)
# and so is skipped by the root's ./... patterns: a change that deletes an
# API the benchmark harness builds against fails here, not only when the
# benchmark runs. It builds offline with the local toolchain and writes no
# file under bench/.
bench-vet:
	cd bench && GOWORK=off GOTOOLCHAIN=local GOPROXY=off $(GO) vet ./...

# lint runs the determinism multichecker over the module with the
# per-package cache, so incremental runs only re-analyze packages whose
# content hash (or dependency cone, or the lint tree itself) changed.
# Suppress an individual finding with `//lint:ignore <analyzer> <reason>`
# on or above the flagged line; disable a whole analyzer with -disable for
# triage, or run one with -only while developing it.
lint:
	$(GO) run ./cmd/liquidlint -cache .lintcache ./...

# lint-facts is the baseline ratchet: the schema-stable -json report
# (analyzer roster, sorted findings, live suppressions) must match the
# committed LINT.baseline byte for byte. New findings, new suppressions,
# and roster changes all fail here until LINT.baseline is regenerated
# deliberately with `make lint-baseline` — same contract as
# COVERAGE.baseline: the committed file is the decision record.
lint-facts:
	@$(GO) run ./cmd/liquidlint -cache .lintcache -json ./... > .lint.report.json 2>/dev/null; st=$$?; \
	if [ $$st -ge 2 ]; then rm -f .lint.report.json; $(GO) run ./cmd/liquidlint -cache .lintcache -json ./...; exit $$st; fi; \
	if diff -u LINT.baseline .lint.report.json; then \
		echo "lint-facts: report matches LINT.baseline"; rm -f .lint.report.json; \
	else \
		echo "lint-facts: report drifted from committed LINT.baseline — fix the findings, or regenerate deliberately with 'make lint-baseline'"; \
		rm -f .lint.report.json; exit 1; \
	fi

lint-baseline:
	@$(GO) run ./cmd/liquidlint -json ./... > LINT.baseline; st=$$?; \
	if [ $$st -ge 2 ]; then exit $$st; fi; \
	echo "wrote LINT.baseline"

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race ./...

# test-faults exercises just the fault-injection stack: the fault plans and
# recovery policies, the crash-tolerant convergecast, and the engine's
# panic recovery.
test-faults:
	$(GO) test ./internal/fault/... ./internal/localsim/... ./internal/engine/...

# cover runs the suite with statement coverage (-short: the expensive
# cross-binary byte-identity test re-runs under plain `test`), prints the
# per-package summary, and enforces a floor: total statement coverage must
# not drop below COVERAGE.baseline. The baseline is a deliberately
# committed number — raise it when coverage genuinely improves, never
# lower it to make a regression pass.
cover:
	@$(GO) test -short -count=1 -coverprofile=coverage.out ./... > coverage.pkgs 2>&1 || { cat coverage.pkgs; rm -f coverage.pkgs; exit 1; }
	@grep -v 'no test files' coverage.pkgs || true; rm -f coverage.pkgs
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/{sub(/%/,"",$$3); print $$3}'); \
	base=$$(cat COVERAGE.baseline); \
	echo "coverage: total $$total% (baseline floor $$base%)"; \
	awk -v t="$$total" -v b="$$base" 'BEGIN{exit (t+0 < b+0) ? 1 : 0}' || \
		{ echo "coverage: total $$total% fell below committed baseline $$base% — add tests or (deliberately) update COVERAGE.baseline"; exit 1; }

# fuzz-smoke is a short deterministic-budget fuzz pass (also part of check):
# the simulator's message validation, the divide-and-conquer convolution
# kernels against the naive DP reference, the approximation ladder's
# certified intervals against the exact DP answer, the bit-sliced
# multi-delegate sampler against its one-sample-at-a-time reference, the
# scale fold's chunk pass against its reference resolution and the
# ladder's moment blocks, and liquidd's two request decoders against
# encoding/json.
fuzz-smoke:
	$(GO) test ./internal/localsim -run='^$$' -fuzz=FuzzMessageValidation -fuzztime=5s
	$(GO) test ./internal/prob -run='^$$' -fuzz=FuzzConvolutionEquivalence -fuzztime=5s
	$(GO) test ./internal/prob -run='^$$' -fuzz=FuzzLadderSoundness -fuzztime=5s
	$(GO) test ./internal/server -run='^$$' -fuzz=FuzzDecodeEvaluateRequest -fuzztime=5s
	$(GO) test ./internal/server -run='^$$' -fuzz=FuzzDecodeWhatIfRequest -fuzztime=5s
	$(GO) test ./internal/election -run='^$$' -fuzz=FuzzDeltaEquivalence -fuzztime=5s
	$(GO) test ./internal/election -run='^$$' -fuzz=FuzzMultiDelegationEquivalence -fuzztime=5s
	$(GO) test ./internal/scale -run='^$$' -fuzz=FuzzChunkSinksCanonical -fuzztime=5s

# serve-smoke is the end-to-end serving gate (also part of check): build
# liquidd and liquidload, drive a deterministic load profile against a
# live daemon with offline bit-identity verification, then drain with
# SIGTERM and check the manifest flush and exit code.
serve-smoke:
	$(GO) test ./cmd/liquidd -run='^TestServeSmoke$$' -count=1

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke runs the exact-engine kernel benchmarks for a single
# iteration each: a crash check over benchmark-only code, cheap enough for
# the check gate. Timings from one iteration are meaningless; use
# `bash bench/run.sh` for numbers. The second line covers the convolution
# engine's fork-join path, whose benchmark lives in internal/prob; the
# third the scale tier's fused chunk pass.
bench-smoke:
	$(GO) test -run='^$$' -benchtime=1x -bench='^(BenchmarkPoissonBinomialPMF|BenchmarkWeightedMajorityDP|BenchmarkResolutionScoreCached|BenchmarkEvaluateMechanismSmall|BenchmarkEvaluateSweepSmall|BenchmarkDeltaSingleVoter2000|BenchmarkDeltaChurn2000|BenchmarkLadderMajority100000|BenchmarkScaleEvaluateMajority100000|BenchmarkCertifyQuery100000|BenchmarkMultiDelegationProbability)$$' .
	$(GO) test ./internal/prob -run='^$$' -benchtime=1x -bench='^BenchmarkPBPMFParallel$$'
	$(GO) test ./internal/scale -run='^$$' -benchtime=1x -bench='^BenchmarkChunkStats$$'

# Regenerate every paper experiment at full scale (deterministic, seed 1).
reproduce:
	$(GO) run ./cmd/reproduce -scale 1 -seed 1

reproduce-fast:
	$(GO) run ./cmd/reproduce -scale 0.25 -seed 1

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/daogovernance
	$(GO) run ./examples/socialnetwork
	$(GO) run ./examples/localprotocol
	$(GO) run ./examples/equilibrium
	$(GO) run ./examples/learningcurve
	$(GO) run ./examples/distributedelection

fmt:
	gofmt -w .
