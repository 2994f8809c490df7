# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check build vet cross-vet bench-vet lint lint-facts lint-baseline test test-short test-race test-faults golden cover fuzz-smoke bench bench-smoke serve-smoke reproduce reproduce-fast examples fmt

all: check

# check is the gate for a change, in order: compile, go vet, go vet for
# arm64 (cross-vet: the build without the amd64 vector kernels, and no fused
# multiply-add in the FFT, the moment sums, the request decoder or the
# competency draws), go vet
# over the benchmark module (bench-vet), the
# repo's own determinism analyzers (cmd/liquidlint — see DESIGN.md "Static
# invariants"), the lint baseline ratchet (lint-facts), tests, reproduce's
# bytes against reproduce_output.txt (golden), the race detector over the
# parallel engine and election sampling, the coverage floor against
# COVERAGE.baseline, a short fuzz pass over the simulator's
# message-validation invariants, the convolution kernels and the request
# decoder, and a one-iteration smoke run of the kernel and decode benchmarks
# (catches crashes in benchmark-only code paths, not timings).
# Lint sits between vet and test so cheap structural violations fail the
# gate before the expensive suites run. The recipe runs every stage it can
# reach, prints a one-line pass/fail summary, and exits nonzero on the
# first failure (later stages report as skip).
check:
	@rc=0; summary=""; \
	for stage in build vet cross-vet bench-vet lint lint-facts test golden test-race cover fuzz-smoke bench-smoke serve-smoke; do \
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

# cross-vet type-checks and vets the module for arm64, which compiles the
# non-amd64 fallback of internal/prob's vector kernels (dp_other.go) that no
# amd64 build sees. It then compiles internal/prob, internal/server and
# internal/experiment for arm64 with -S and fails on any fused multiply-add
# (FMADDD, FMSUBD, FNMADDD, FNMSUBD) the listing attributes to
# internal/prob/fft.go, internal/prob/samplers.go, internal/server/decode.go
# or internal/experiment/experiment.go, or lists inside (*SumStats).Add or
# AddUnits. The last two are matched by the listing's function headers,
# because the compensated sum inlined into them is attributed to sum.go.
# The scalar FFT, the moment sums, the request decoder and the competency
# samplers (with experiment.go's uniformInstance) round every product
# explicitly, so they compute the same bits on every architecture. It needs
# no network: the standard library is cross-compiled from the local
# toolchain.
cross-vet:
	GOARCH=arm64 $(GO) vet ./...
	@asm=$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/prob ./internal/server ./internal/experiment 2>&1) || { printf '%s\n' "$$asm"; exit 1; }; \
	fused=$$(printf '%s\n' "$$asm" | awk '/^[^ \t]/ { fn = $$1 } \
		/\)[ \t]+FN?M(ADD|SUB)D/ && (fn ~ /\.\(\*SumStats\)\.(Add|AddUnits)$$/ || /\/internal\/(prob\/(fft|samplers)|server\/decode|experiment\/experiment)\.go:[0-9]+\)/) { print fn ": " $$0 }'); \
	if [ -n "$$fused" ]; then printf 'cross-vet: fused multiply-add on arm64:\n%s\n' "$$fused"; exit 1; fi; \
	echo "cross-vet: fft.go, samplers.go, decode.go, experiment.go and SumStats.Add/AddUnits compile to no fused multiply-add on arm64"

# bench-vet compiles and vets bench/, which is its own module (bench/go.mod)
# and so is skipped by the root's ./... patterns: a change that deletes an
# API the benchmark harness builds against fails here, not only when the
# benchmark runs. It builds offline with the local toolchain and writes no
# file under bench/.
bench-vet:
	cd bench && GOWORK=off GOTOOLCHAIN=local GOPROXY=off $(GO) vet ./...

# lint runs the determinism multichecker over the module.
# Suppress an individual finding with `//lint:ignore <analyzer> <reason>`
# on or above the flagged line; disable a whole analyzer with -disable for
# triage, or run one with -only while developing it.
lint:
	$(GO) run ./cmd/liquidlint ./...

# lint-facts is the baseline ratchet: the schema-stable -json report
# (analyzer roster, sorted findings, live suppressions) must match the
# committed LINT.baseline byte for byte. New findings, new suppressions,
# and roster changes all fail here until LINT.baseline is regenerated
# deliberately with `make lint-baseline` — same contract as
# COVERAGE.baseline: the committed file is the decision record.
lint-facts:
	@$(GO) run ./cmd/liquidlint -json ./... > .lint.report.json 2>/dev/null; st=$$?; \
	if [ $$st -ge 2 ]; then rm -f .lint.report.json; $(GO) run ./cmd/liquidlint -json ./...; exit $$st; fi; \
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

# golden is the byte-identity gate for the paper job: reproduce at full
# scale and seed 1, on one worker, on four, and built with telemetry
# compiled out (-tags liquidnotelemetry), must each print
# reproduce_output.txt byte for byte. The binaries and outputs go to a
# temporary directory that is removed afterwards.
golden:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/reproduce" ./cmd/reproduce && \
	$(GO) build -tags liquidnotelemetry -o "$$dir/reproduce-notelemetry" ./cmd/reproduce && \
	for run in "reproduce -workers 1" "reproduce -workers 4" "reproduce-notelemetry -workers 4"; do \
		set -- $$run; bin=$$1; shift; \
		"$$dir/$$bin" -scale 1 -seed 1 -quiet "$$@" > "$$dir/out.txt" 2>/dev/null || { echo "golden: $$run failed"; exit 1; }; \
		if cmp "$$dir/out.txt" reproduce_output.txt; then echo "golden: $$run matches reproduce_output.txt"; \
		else echo "golden: $$run differs from reproduce_output.txt"; exit 1; fi; \
	done

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

# require-tests fails unless package $(1) has every test, benchmark or fuzz
# target named in $(2). `go test -fuzz=NoSuch` and `-bench='^(NoSuch)$$'`
# match nothing and exit 0, so without this check a renamed or deleted
# target would drop out of the smoke stages below silently. Each smoke line
# is preceded by a check of the targets it names, against one listing of
# the package.
define require-tests
@listed=$$($(GO) test -list . $(1)) || { echo "$$listed"; exit 1; }; \
for name in $(2); do \
	printf '%s\n' "$$listed" | grep -qx "$$name" || { echo "$(1) has no target $$name"; exit 1; }; \
done
endef

# fuzz-smoke is a short deterministic-budget fuzz pass (also part of check):
# the simulator's message validation, the divide-and-conquer convolution
# kernels against the naive DP reference, the DP leaf's and the FFT's
# vector lanes against their scalar loops, the approximation ladder's
# certified intervals against the exact DP answer, the bit-sliced
# multi-delegate sampler against its one-sample-at-a-time reference, the
# scale fold's chunk pass against its reference resolution and the
# ladder's moment blocks, liquidd's two request decoders against
# encoding/json, its number readers against strconv, the delegation
# resolver's competency-order visit against the id-order reference, the
# approval view's counts, sets and draws against a brute-force scan with
# Approves, and rng.Threshold's integer draw against Stream.Bernoulli.
fuzz-smoke:
	$(call require-tests,./internal/localsim,FuzzMessageValidation)
	$(GO) test ./internal/localsim -run='^$$' -fuzz=FuzzMessageValidation -fuzztime=5s
	$(call require-tests,./internal/prob,FuzzConvolutionEquivalence FuzzDPIntoLanesMatchScalar FuzzFFTLanesMatchScalar FuzzLadderSoundness)
	$(GO) test ./internal/prob -run='^$$' -fuzz=FuzzConvolutionEquivalence -fuzztime=5s
	$(GO) test ./internal/prob -run='^$$' -fuzz=FuzzDPIntoLanesMatchScalar -fuzztime=5s
	$(GO) test ./internal/prob -run='^$$' -fuzz=FuzzFFTLanesMatchScalar -fuzztime=5s
	$(GO) test ./internal/prob -run='^$$' -fuzz=FuzzLadderSoundness -fuzztime=5s
	$(call require-tests,./internal/server,FuzzDecodeEvaluateRequest FuzzDecodeWhatIfRequest FuzzDecodeNumber)
	$(GO) test ./internal/server -run='^$$' -fuzz=FuzzDecodeEvaluateRequest -fuzztime=5s
	$(GO) test ./internal/server -run='^$$' -fuzz=FuzzDecodeWhatIfRequest -fuzztime=5s
	$(GO) test ./internal/server -run='^$$' -fuzz=FuzzDecodeNumber -fuzztime=5s
	$(call require-tests,./internal/core,FuzzResolveOrder FuzzApprovalView)
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzResolveOrder -fuzztime=5s
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzApprovalView -fuzztime=5s
	$(call require-tests,./internal/rng,FuzzThresholdMatchesBernoulli)
	$(GO) test ./internal/rng -run='^$$' -fuzz=FuzzThresholdMatchesBernoulli -fuzztime=5s
	$(call require-tests,./internal/election,FuzzDeltaEquivalence FuzzMultiDelegationEquivalence)
	$(GO) test ./internal/election -run='^$$' -fuzz=FuzzDeltaEquivalence -fuzztime=5s
	$(GO) test ./internal/election -run='^$$' -fuzz=FuzzMultiDelegationEquivalence -fuzztime=5s
	$(call require-tests,./internal/scale,FuzzChunkSinksCanonical)
	$(GO) test ./internal/scale -run='^$$' -fuzz=FuzzChunkSinksCanonical -fuzztime=5s

# serve-smoke is the end-to-end serving gate (also part of check): build
# liquidd and liquidload, drive a deterministic load profile against a
# live daemon with offline bit-identity verification, then drain with
# SIGTERM and check the manifest flush and exit code.
serve-smoke:
	$(GO) test ./cmd/liquidd -run='^TestServeSmoke$$' -count=1

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke runs the kernel benchmarks for a single iteration each: a
# crash check over benchmark-only code, cheap enough for the check gate.
# Timings from one iteration are meaningless; use `bash bench/run.sh` for
# numbers. The first run covers the root package's benchmarks in
# BENCH_SMOKE: the exact kernels, one replication's delegation draw and
# resolve, the delta and certified tiers, and the sampling kernels
# (multi-delegate and Monte-Carlo P^M votes, track records, sampling
# without replacement). The second covers the
# convolution engine's fork-join path and its FFT merge with and without
# the vector lanes, whose benchmarks live in internal/prob, the third the
# scale tier's fused chunk pass, and the fourth liquidd's what-if request
# parse.
BENCH_SMOKE = BenchmarkPoissonBinomialPMF BenchmarkWeightedMajorityDP BenchmarkResolutionScoreCached BenchmarkReplicationApproval2000 BenchmarkEvaluateMechanismSmall BenchmarkEvaluateSweepSmall BenchmarkDeltaSingleVoter2000 BenchmarkDeltaChurn2000 BenchmarkLadderMajority100000 BenchmarkScaleEvaluateMajority100000 BenchmarkCertifyQuery100000 BenchmarkMultiDelegationProbability BenchmarkTrackRecordSimulate BenchmarkResolutionProbabilityMC BenchmarkSampleWithoutReplacement
empty :=
space := $(empty) $(empty)

bench-smoke:
	$(call require-tests,.,$(BENCH_SMOKE))
	$(GO) test -run='^$$' -benchtime=1x -bench='^($(subst $(space),|,$(BENCH_SMOKE)))$$' .
	$(call require-tests,./internal/prob,BenchmarkPBPMFParallel BenchmarkConvolve)
	$(GO) test ./internal/prob -run='^$$' -benchtime=1x -bench='^(BenchmarkPBPMFParallel|BenchmarkConvolve)$$'
	$(call require-tests,./internal/scale,BenchmarkChunkStats)
	$(GO) test ./internal/scale -run='^$$' -benchtime=1x -bench='^BenchmarkChunkStats$$'
	$(call require-tests,./internal/server,BenchmarkParseWhatIfRequest)
	$(GO) test ./internal/server -run='^$$' -benchtime=1x -bench='^BenchmarkParseWhatIfRequest$$'

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
