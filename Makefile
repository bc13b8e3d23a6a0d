GO ?= go

.PHONY: all tier1 build test vet fmt-check lint-logs race diff diff-phase2 diff-incremental bench bench-smoke bench-e2e bench-harness smoke-daemon chaos-smoke bench-compare docs docs-check size clean

all: tier1

# Tier-1 gate: static checks plus the full test suite under the race
# detector (the server's aggregation and cache paths are concurrent and
# must stay race-clean).  This is a superset of the ROADMAP.md verify
# command (go build ./... && go test ./...); the race run includes
# cmd/docgen's staleness test, so a stale ALGORITHM.md fails tier-1.
# The differential run and the benchmark smoke keep the engines honest:
# each must agree bit for bit with its test-only reference, and the
# benchmarks must at least compile and complete one iteration; the paper
# tables' iterations go through cmd/benchtab, so benchmark output the
# summarizer cannot read fails tier-1.
# bench-harness builds and tests the end-to-end benchmark module, which
# the root ./... patterns skip.
tier1: vet fmt-check lint-logs docs-check race diff bench-smoke bench-harness smoke-daemon chaos-smoke

# Engine differentials: Phase I CSR vs the pointer-walking reference in
# phase1ref_test.go, the flat initial labels vs NewInitLabels, Phase II
# (instances, their order, and the Table-1 per-pass state) vs the
# whole-graph reference in phase2ref_test.go, the Phase II admit filter vs
# a filter-off run (no rejected candidate verifies; same instances in the
# same order), and the incremental replay engine vs Find on a fresh
# matcher, on fixed and random circuits, twice (scratch-pool reuse across
# runs is part of the contract), under the race detector.  A CSR view's
# shared state is invisible to results: runs over one view (its scratch
# pool, its cached initial labeling) equal runs over a fresh view, across
# patterns, after edit batches that change a degree or rename the rails,
# and from concurrent matchers alternating two global sets
# (TestScratchPoolReuse, TestViewLabelingAfterEdits,
# TestSharedViewGlobalSets).  The server's
# instance renderer runs against the map-building reference it replaced,
# byte for byte, and the netlist reader and flattener against theirs
# (parseref_test.go) over ten seconds of fuzzing.  Ten more seconds fuzz
# edit batches (internal/delta FuzzApply): a failed or undone batch restores
# the circuit exactly, and Touched names every net name a batch adds or
# drops.  Ten more fuzz graph JSON, the store's snapshot format
# (internal/graph FuzzDecodeJSON): decoding never panics, what decodes
# validates, and re-encoding is stable.  Each fuzzer minimizes a new input
# for at most a second, so its ten seconds go to exploring.  Answers depend only on the circuit and the request: a run's
# globals leave both circuits' marks as they were, in the library
# (TestRunGlobalsLeaveCircuitsUnmarked) and in the daemon, before and after
# a restart (TestRequestGlobalsLeaveStoredCircuit); extraction output stays
# byte-identical (TestExtractedNetlistGolden, and the extract job's netlist,
# TestExtractJobNetlistMatchesLibrary); and TestDaemonHistory checks a
# seeded history of uploads, PATCHes, matches, sweeps, extract jobs and
# restarts against an oracle that rebuilds each circuit from its upload
# text and edit ops (go test -run TestDaemonHistory ./internal/server/
# -history.time 10m runs more seeds).  Request timelines stay coarse:
# Find, FindIncremental, FindParallel and a sweep under a request timeline
# (not a trace) record only the span kinds /metrics knows, as many on a
# circuit with hundreds of candidates as on one with two
# (TestRequestTimelineStaysCoarse in core and sweep).  Each request kind
# has one path: a match, batch or sweep sent as a job answers what the
# synchronous endpoint answers, counts, instances and per-item statuses
# alike (TestJobsAnswerAsSyncRequests), and TestDaemonHistory sends a share
# of its matches and sweeps as jobs.  A capture never outlives its
# circuit: no match or sweep replays the capture of a circuit that was
# replaced, whether by an extract job's store_as
# (TestStoreAsDropsStaleCaptures) or by a PUT, or a DELETE and a PUT, that
# lands while a match or a sweep on the old circuit still runs
# (TestPutDuringMatchDropsItsCapture,
# TestReplaceDuringSweepDropsItsCapture).
diff: diff-incremental
	$(GO) test -race -count=2 -run 'TestPhase1Differential|TestInitMainLabelsMatchesNewInitLabels|TestPhase2Differential|TestTraceTableMatchesReference|TestAdmitSound|TestScratchPoolReuse|TestViewLabelingAfterEdits|TestSharedViewGlobalSets|TestRunGlobalsLeaveCircuitsUnmarked|TestRequestTimelineStaysCoarse' ./internal/core/
	$(GO) test -race -count=2 -run 'TestRequestTimelineStaysCoarse' ./internal/sweep/
	$(GO) test -race -count=2 -run 'TestWriteMatch|TestResponseMirrorsMatchPublicTypes|TestBulkResponsesDecodeToReference|TestRequestGlobalsLeaveStoredCircuit|TestExtractJobNetlistMatchesLibrary|TestDaemonHistory|TestJobsAnswerAsSyncRequests|TestStoreAsDropsStaleCaptures|TestPutDuringMatchDropsItsCapture|TestReplaceDuringSweepDropsItsCapture' ./internal/server/
	$(GO) test -race -count=2 -run 'TestExtractedNetlistGolden' ./internal/extract/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/netlist/
	$(GO) test -run '^$$' -fuzz '^FuzzApply$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/delta/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeJSON$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/graph/

# Incremental differential only: FindIncremental replay after random edit
# batches against the full-matcher oracle, bit-identical instances.  The
# edit path itself: a failed or undone batch restores the circuit exactly
# (internal/delta), edits in place and on a clone agree step for step and
# view for view, an interrupted edit leaves the entry serving the pre-edit
# circuit, an edit allocates under half a Clone (internal/store), a patched
# CSR view equals a fresh build under both remap shapes (internal/csr), and
# matches, sweeps and extract jobs racing PATCHes each answer as at the
# version they report (internal/server).
diff-incremental:
	$(GO) test -race -count=2 -run 'TestIncrementalDifferential|TestIncrementalFallbacks' ./internal/core/
	$(GO) test -race -count=2 ./internal/delta/
	$(GO) test -race -count=2 -run 'TestPatch' ./internal/csr/
	$(GO) test -race -count=2 -run 'TestEditInPlaceMatchesClone|TestAppendLogFaultFailsEdit|TestApplyEditsAllocatesUnderHalfAClone|TestConcurrentEditsAndMatches|TestEditedViewMatchesFreshBuild' ./internal/store/
	$(GO) test -race -count=2 -run 'TestEditsRaceReaders|TestConcurrentPatchVsMatch' ./internal/server/

# Phase II differential only: the region engine against the whole-graph
# reference, bit-identical instances and order across worker counts, and
# the same Table-1 state per pass.
diff-phase2:
	$(GO) test -race -count=2 -run 'TestPhase2Differential|TestTraceTableMatchesReference' ./internal/core/

# One-iteration benchmark pass: catches bit-rot in the benchmark harness
# without paying for a real measurement.  The write-path benchmarks (Clone,
# parse plus flatten, store Put and ApplyEdits on rand4000) report
# allocations, the figure their block allocation is about, as do the match
# request path's (BenchmarkFindScratch/request, BenchmarkRenderMatch).
# BenchmarkParseFlatten runs its reader, flatten and hierarchical cases.
# Two one-iteration samples of the E7 and E8 paper tables go through
# cmd/benchtab, which fails on a failed run or on output it cannot read.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkE7|BenchmarkE8' -benchtime 1x -count 2 . | $(GO) run ./cmd/benchtab
	$(GO) test -run '^$$' -bench 'BenchmarkPhase1|BenchmarkFindScratch' -benchmem -benchtime 1x ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkRenderMatch' -benchmem -benchtime 1x ./internal/server/
	$(GO) test -run '^$$' -bench 'BenchmarkSweep' -benchtime 1x ./internal/sweep/
	$(GO) test -run '^$$' -bench 'BenchmarkClone' -benchmem -benchtime 1x ./internal/graph/
	$(GO) test -run '^$$' -bench 'BenchmarkParseFlatten' -benchmem -benchtime 1x ./internal/netlist/
	$(GO) test -run '^$$' -bench 'BenchmarkStorePut|BenchmarkApplyEdits' -benchmem -benchtime 1x ./internal/store/

# End-to-end daemon benchmark (BENCHMARK.json's command): boots the real
# subgeminid and drives the four closed-loop workloads, one row each.  See
# benchmark/README.md for flags (--workload, --seed, --seconds, --trace).
bench-e2e:
	bash benchmark/run.sh

# The benchmark is its own Go module (benchmark/go.mod), so go build, vet
# and test at the root skip it; a core or delta API change could break it
# unnoticed.  Its TestSmoke boots the real daemon and checks every
# workload's oracle for one second.
bench-harness:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Process-level daemon smoke: boot subgeminid with a temporary data
# directory, upload two circuits and a pattern library, run a sync match,
# an async extract job and an async sweep job, restart the daemon, and
# assert the circuits, the library, and the job records reload from the
# snapshots.
smoke-daemon:
	$(GO) run ./scripts/smoke_daemon

# Chaos smoke: the failure-mode counterpart of smoke-daemon.  Boots the
# real binary and rehearses a SIGKILL mid-job (boot recovery fails the
# interrupted record), an injected disk error (-faults flips /readyz and
# recovers), and overload (bulk endpoints shed 429 while a single match
# stays live and a pathological match is cut by its deadline, leak-free).
chaos-smoke:
	$(GO) run ./scripts/chaos_daemon

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Formatting gate: every tracked Go file must be gofmt-clean.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l flags:"; echo "$$out"; exit 1; fi

# Structured-logging boundary: code under internal/ must not import the
# legacy "log" package (internal/obs owns slog; printf-style lines lose
# the request_id correlation the telemetry layer provides).
lint-logs:
	$(GO) run ./scripts/lintlogs

race:
	$(GO) test -race ./...

# Regenerate the paper's evaluation tables (E4–E9, bench_test.go): ten
# samples of every cell, summarized by cmd/benchtab as median [q1–q3] and
# archived as BENCH_<commit>.json, whose meta block comes from the config
# lines (the commit and go lines below, and go test's goos, goarch, pkg
# and cpu).  About ten minutes on a 2-vCPU VM; EXPERIMENTS.md quotes the
# archive.
bench:
	{ echo "commit: $$(git describe --always --dirty)"; echo "go: $$($(GO) env GOVERSION)"; \
	  $(GO) test -run '^$$' -bench 'BenchmarkE[4-9]' -benchtime 0.4s -count 10 . ; } \
		| $(GO) run ./cmd/benchtab -json BENCH_$$(git rev-parse --short HEAD).json

# Compare the Go benchmarks between two git revisions with benchstat when
# it is installed, falling back to cmd/benchtab's median [q1–q3] summary
# of each revision's runs:
#   make bench-compare OLD=main NEW=HEAD
OLD ?= HEAD~1
NEW ?= HEAD
bench-compare:
	@tmp=$$(mktemp -d); \
	for rev in $(OLD) $(NEW); do \
		echo "== benchmarks at $$rev =="; \
		git -c advice.detachedHead=false worktree add -q $$tmp/$$rev $$rev && \
		( cd $$tmp/$$rev && $(GO) test -run '^$$' -bench 'BenchmarkPhase1|BenchmarkFindScratch' -benchtime 100x -count 3 ./internal/core/ ) \
			| tee $$tmp/$$rev.txt; \
		git worktree remove --force $$tmp/$$rev; \
	done; \
	if command -v benchstat >/dev/null; then benchstat $$tmp/$(OLD).txt $$tmp/$(NEW).txt; \
	else for rev in $(OLD) $(NEW); do \
		echo "== summary at $$rev (benchstat not installed)"; $(GO) run ./cmd/benchtab < $$tmp/$$rev.txt; \
	done; fi; \
	rm -rf $$tmp

# Rebuild the generated documentation sections (cmd/docgen): the trace
# tables in ALGORITHM.md from the paper's Fig. 1 example, and the metrics
# reference + fault-point tables in OPERATIONS.md from the server and
# faults registries; docs-check fails when either is stale.
docs:
	$(GO) run ./cmd/docgen -write ALGORITHM.md OPERATIONS.md

docs-check:
	$(GO) run ./cmd/docgen -check ALGORITHM.md OPERATIONS.md

# The progress numbers ROADMAP.md tracks: non-test Go lines (the benchmark
# module and its build directory excluded), the internal/core share,
# core.Options, sweep.Options and server.Config fields, and subgeminid
# flags.
size:
	@echo "non-test Go lines: $$(find . -name '*.go' ! -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | wc -l)"
	@echo "  internal/core:   $$(find internal/core -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@echo "core.Options fields: $$(awk '/^type Options struct \{/{f=1;next} f&&/^\}/{f=0} f&&/^\t[A-Z][A-Za-z0-9]* /{n++} END{print n}' internal/core/core.go)"
	@echo "sweep.Options fields: $$(awk '/^type Options struct \{/{f=1;next} f&&/^\}/{f=0} f&&/^\t[A-Z][A-Za-z0-9]* /{n++} END{print n}' internal/sweep/sweep.go)"
	@echo "server.Config fields: $$(awk '/^type Config struct \{/{f=1;next} f&&/^\}/{f=0} f&&/^\t[A-Z][A-Za-z0-9]* /{n++} END{print n}' internal/server/server.go)"
	@echo "subgeminid flags: $$(grep -c 'flags\.\(String\|Int\|Int64\|Bool\|Duration\|Float64\|Uint\|Var\|Func\)(' cmd/subgeminid/main.go)"

clean:
	$(GO) clean ./...
