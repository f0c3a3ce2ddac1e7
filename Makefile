# Verification entry points. `make verify` is the full tier-1 gate:
# build, tests, race-detector pass (the concurrency harness in
# internal/core and internal/merge is written for -race), and vet.

GO ?= go

# Packages whose fuzz targets run their seed corpora in `make fuzz-seeds`.
# This list and the `faults` recipe below are the only lists of fuzz
# targets: CI calls `make faults`, so a new target is added here, once.
FUZZ_PKGS = ./internal/diff ./internal/expdb ./internal/profile ./internal/structfile ./internal/metric ./internal/pprofio ./internal/render ./internal/engine

.PHONY: verify build test race vet lint faults fuzz-seeds chaos nommap

verify: build test race vet lint faults chaos nommap

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
	@# internal/oracle is the tests' statement of the paper's rules: no
	@# program code may import it.
	@if $(GO) list -f '{{.ImportPath}}:{{range .Imports}} {{.}}{{end}}' ./... | grep -E ' repro/internal/oracle( |$$)'; then \
		echo "non-test code imports repro/internal/oracle"; exit 1; \
	fi
	@# hpcviewer has one open path, engine.Open, and shows views only
	@# through a session: it may neither decode a database itself nor build
	@# a view outside the engine.
	@if $(GO) list -f '{{join .Imports " "}}' ./cmd/hpcviewer | grep -E '(^| )repro/internal/expdb( |$$)' >/dev/null; then \
		echo "cmd/hpcviewer imports repro/internal/expdb"; exit 1; \
	fi
	@if grep -n 'core\.Build[A-Za-z]*View' $$(ls cmd/hpcviewer/*.go | grep -v '_test\.go$$'); then \
		echo "cmd/hpcviewer builds a view with core.Build*View"; exit 1; \
	fi
	@# One ruler each: time is `go run ./bench`, counts are TestCounters
	@# against testdata/counters.json. The root package declares no
	@# benchmark, and no hand-edited baseline file comes back.
	@if grep -n '^func Benchmark' *_test.go; then \
		echo "a root-package test declares a Benchmark function"; exit 1; \
	fi
	@if [ -n "$$(git ls-files 'BENCH_*.json')" ]; then \
		git ls-files 'BENCH_*.json'; echo "BENCH_*.json baselines are tracked"; exit 1; \
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

# Every fuzz target's checked-in seed corpus, run as plain tests.
fuzz-seeds:
	$(GO) test -run Fuzz $(FUZZ_PKGS)

# Robustness gate: the fault-injection matrix (every workload's files, every
# format version, truncation + corruption sweeps), every seed corpus, plus
# a short coverage-guided fuzz of the binary readers (one target for v1, v2
# and v3), the profile trie's cached Record context, the pprof importer, the
# cell formatter, the numbered-line layout, the formula parser against its
# block evaluator, the summary statistics against an exact reference and the
# views of whatever database the readers accept. CI runs this target.
# Each target fuzzes for 10 s; minimizing a newly interesting input may take
# 60 s by default, and inside the 10 s that left targets at 0 execs/s after
# about 3 s, so minimization is bounded to 1 s: a crasher is still
# reported, only less minimized.
faults:
	$(GO) test -run 'TestFaultMatrix|TestReaderFaults' ./internal/faultio
	$(MAKE) fuzz-seeds
	$(GO) test -run XXX -fuzz 'FuzzRead$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/profile
	$(GO) test -run XXX -fuzz FuzzRecord -fuzztime 10s -fuzzminimizetime 1s ./internal/profile
	$(GO) test -run XXX -fuzz FuzzReadBinary -fuzztime 10s -fuzzminimizetime 1s ./internal/expdb
	$(GO) test -run XXX -fuzz FuzzDiff -fuzztime 10s -fuzzminimizetime 1s ./internal/diff
	$(GO) test -run XXX -fuzz FuzzImportPprof -fuzztime 10s -fuzzminimizetime 1s ./internal/pprofio
	$(GO) test -run XXX -fuzz FuzzFormatCell -fuzztime 10s -fuzzminimizetime 1s ./internal/render
	$(GO) test -run XXX -fuzz FuzzRenderRow -fuzztime 10s -fuzzminimizetime 1s ./internal/render
	$(GO) test -run XXX -fuzz FuzzParse -fuzztime 10s -fuzzminimizetime 1s ./internal/metric
	$(GO) test -run XXX -fuzz FuzzStats -fuzztime 10s -fuzzminimizetime 1s ./internal/metric
	$(GO) test -run XXX -fuzz FuzzViews -fuzztime 10s -fuzzminimizetime 1s ./internal/engine

# The packages that read databases, built with the portable stand-in for
# mmap (internal/mmapio's nommap tag: the file is read into a page-aligned
# heap buffer), which no other target compiles, and the conformance matrix
# over it, so the stand-in's v3 open is checked against internal/oracle.
# CI runs this target.
nommap:
	$(GO) test -tags nommap ./internal/mmapio ./internal/expdb ./internal/engine ./internal/catalog ./internal/faultio
	$(GO) test -tags nommap -run TestConformance .

# Live-serving chaos gate, always under -race: catalog lifecycle races
# (evict/republish/rot under concurrent query load), HTTP-layer fault
# injection (panics, stalls, request floods) against a serving process, and
# three rounds of the concurrency tests over views that sessions share.
chaos:
	$(GO) test -race -run 'TestChaos' -count=1 ./internal/catalog ./internal/server
	$(GO) test -race -count=3 -run 'TestConcurrent' ./internal/engine ./internal/core
