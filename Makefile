# Verification entry points. `make verify` is the full tier-1 gate:
# build, tests, race-detector pass (the concurrency harness in
# internal/core and internal/merge is written for -race), and vet.

GO ?= go

# Merge + core + query benchmark selection shared by bench/benchdiff.
# ChildLookup is a nanosecond-scale operation and needs a fixed high
# iteration count — 30 iterations of a ~50ns op is pure timer noise.
# HotPath is anchored so it does not also select BenchmarkHotPathSize.
BENCHES = BenchmarkMergeRanks|BenchmarkParallelMerge|BenchmarkProfileCodec|BenchmarkSamplerRecord|BenchmarkBuildCCT|BenchmarkReadBinary|BenchmarkDerivedEval|BenchmarkSortTree|BenchmarkHotPath$$|BenchmarkComputeMetrics|BenchmarkLazyOpenSynthetic|BenchmarkConcurrentSessions|BenchmarkRenderRows|BenchmarkExpandAllRender|BenchmarkMappedOpen|BenchmarkColdFirstQuery|BenchmarkCatalogSessions|BenchmarkTraceView|BenchmarkTraceCapture|BenchmarkImportPprof|BenchmarkReport$$
BENCH_CMD = $(GO) test -run XXX -bench '$(BENCHES)' -benchtime 30x -benchmem . \
	&& $(GO) test -run XXX -bench BenchmarkChildLookup -benchtime 2000000x -benchmem . \
	&& $(GO) test -run XXX -bench 'BenchmarkDiffUnion|BenchmarkDiffKernels' -benchtime 5x -benchmem .

# Packages whose fuzz targets run their seed corpora in `make fuzz-seeds`.
# This list and the `faults` recipe below are the only lists of fuzz
# targets: CI calls `make faults`, so a new target is added here, once.
FUZZ_PKGS = ./internal/diff ./internal/expdb ./internal/profile ./internal/structfile ./internal/metric ./internal/pprofio ./internal/render ./internal/engine

.PHONY: verify build test race vet lint bench benchdiff bench-smoke bench-merge bench-diff bench-trace faults fuzz-seeds chaos

verify: build test race vet lint bench-smoke faults chaos

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l prints:"; echo "$$unformatted"; exit 1; \
	fi

# Static analysis beyond vet. Both tools run in CI unconditionally; locally
# each is skipped (with a note) when not on PATH — the container image does
# not bake them in and the build must not fetch dependencies.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (CI runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipping (CI runs it)"; \
	fi

# Merge + core + query + engine + diff benchmarks with allocation stats —
# the numbers recorded in BENCH_merge.json, BENCH_core.json,
# BENCH_query.json, BENCH_engine.json and BENCH_diff.json. The
# million-scope diff benches run at 5x: one union iteration is ~3s.
bench:
	@$(BENCH_CMD)

# Same run, compared against the committed baselines. Allocation counts are
# deterministic and fail the diff when they regress; ns/op is reported but
# only fails beyond 50% (the shared two-core box drifts 10-20% between runs).
benchdiff:
	@( $(BENCH_CMD) ) | $(GO) run ./cmd/benchdiff -max-regress 0.5 BENCH_merge.json BENCH_core.json BENCH_query.json BENCH_engine.json BENCH_diff.json BENCH_open.json BENCH_catalog.json BENCH_trace.json BENCH_report.json

# Run every root benchmark body once (N=1) — the rot guard behind verify.
bench-smoke:
	$(GO) test -run TestBenchSmoke .

# Regenerate the numbers recorded in BENCH_merge.json.
bench-merge:
	$(GO) test -run XXX -bench 'BenchmarkMergeRanks|BenchmarkParallelMerge|BenchmarkProfileCodec|BenchmarkSamplerRecord' -benchtime 30x -benchmem .

# Regenerate the numbers recorded in BENCH_diff.json.
bench-diff:
	$(GO) test -run XXX -bench 'BenchmarkDiffUnion|BenchmarkDiffKernels' -benchtime 5x -benchmem .

# Regenerate the numbers recorded in BENCH_trace.json.
bench-trace:
	$(GO) test -run XXX -bench 'BenchmarkTraceView|BenchmarkTraceCapture' -benchtime 30x -benchmem .

# Every fuzz target's checked-in seed corpus, run as plain tests.
fuzz-seeds:
	$(GO) test -run Fuzz $(FUZZ_PKGS)

# Robustness gate: the fault-injection matrix (every workload's files, both
# format versions, truncation + corruption sweeps), every seed corpus, plus
# a short coverage-guided fuzz of the binary readers, the pprof importer, the
# cell formatter and the views of whatever database the readers accept. CI
# runs this target.
faults:
	$(GO) test -run 'TestFaultMatrix|TestReaderFaults' ./internal/faultio
	$(MAKE) fuzz-seeds
	$(GO) test -run XXX -fuzz 'FuzzRead$$' -fuzztime 10s ./internal/profile
	$(GO) test -run XXX -fuzz FuzzReadBinary -fuzztime 10s ./internal/expdb
	$(GO) test -run XXX -fuzz FuzzReadV3 -fuzztime 10s ./internal/expdb
	$(GO) test -run XXX -fuzz FuzzReadTrace -fuzztime 10s ./internal/expdb
	$(GO) test -run XXX -fuzz FuzzDiff -fuzztime 10s ./internal/diff
	$(GO) test -run XXX -fuzz FuzzImportPprof -fuzztime 10s ./internal/pprofio
	$(GO) test -run XXX -fuzz FuzzFormatCell -fuzztime 10s ./internal/render
	$(GO) test -run XXX -fuzz FuzzViews -fuzztime 10s ./internal/engine

# Live-serving chaos gate, always under -race: catalog lifecycle races
# (evict/republish/rot under concurrent query load) and HTTP-layer fault
# injection (panics, stalls, request floods) against a serving process.
chaos:
	$(GO) test -race -run 'TestChaos' -count=1 ./internal/catalog ./internal/server
