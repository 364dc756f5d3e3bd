GO ?= go

# The dispatch-heavy simulator scenarios, the event-engine micro-benchmarks
# under them, and the harness grid benchmark; all feed the BENCH_sim.json
# trajectory.
BENCH_PKGS = ./internal/sim ./internal/devent ./internal/harness
BENCH_PATTERN = 'BenchmarkSim|BenchmarkDevent|BenchmarkRunGrid'

# The bucketing-core and allocator hot-path scenarios, plus the end-to-end
# paper-pool simulation they dominate; these feed BENCH_alloc.json.
BENCH_ALLOC_PKGS = ./internal/core ./internal/allocator ./internal/sim
BENCH_ALLOC_PATTERN = 'BenchmarkCore|BenchmarkAlloc|BenchmarkSimPaperPool1k'

# The streaming macro-scenarios: million-task Source-driven runs, the
# scheduler core's capacity-index placement probes and its dispatch pass over a
# deep queue. Merged into BENCH_sim.json rather than rewriting it, since the
# full Stream1M run takes about a minute.
BENCH_STREAM_PKGS = ./internal/sim ./internal/sched
BENCH_STREAM_PATTERN = 'BenchmarkStream|BenchmarkPlacementIndex|BenchmarkDispatchDeepQueue'

# The allocator-service throughput scenarios (sustained allocs/sec across
# concurrent tenants over real TCP connections); these feed BENCH_serve.json.
BENCH_SERVE_PKGS = ./internal/serve
BENCH_SERVE_PATTERN = 'BenchmarkServe'
# Ceiling for the service smoke run: the binary frame layout and the
# pooled call slots make a steady-state round-trip allocation-free (0
# allocs/op measured; the budget covers goroutine spin-up amortized across
# the 100-iteration smoke). Anything past this means the frame hot path
# started allocating again.
SERVE_MAX_ALLOCS = 8
# Ceiling for the streaming smoke run: BenchmarkStream100k measures ~140k
# allocs for a 100k-task run (setup plus ~0.4 allocs/task of retry and map
# traffic); anything past this means the engine regressed to per-task
# allocation.
STREAM_MAX_ALLOCS = 200000

# The live work-queue engine scenarios: full manager->worker->manager round
# trips over in-memory loopback connections at 1/8/64 workers plus the
# worker-churn overlay; these feed BENCH_wq.json.
BENCH_WQ_PKGS = ./internal/wq
BENCH_WQ_PATTERN = 'BenchmarkWQ'
# Ceiling for the live-engine smoke run: a steady-state round trip costs 4
# allocs/op (outcome channel, task state, and reader/executor handoff); the
# headroom covers driver/executor goroutine spin-up amortized across the
# smoke iterations. Past this the wire hot path started allocating again.
WQ_MAX_ALLOCS = 8
# BenchmarkWQGreedyBurst is judged apart: its bimodal tasks exhaust ~1.3
# attempts each, and every exhaustion pays the retry path's allocations on top
# of the round trip's (the exceeded-kind slice handed to Retry, the attempt
# ledger outgrowing its inline slot): 10-11 allocs/op measured. Its ceiling
# catches per-dispatch-pass or per-recompute allocation, which would add tens.
WQ_BURST = BenchmarkWQGreedyBurst
WQ_BURST_MAX_ALLOCS = 16

# The wire fuzz targets of both protocols, the scheduler core's early-ending
# dispatch pass against a full walk, and the block-pruned greedy sweep against
# the recursion that costs every break, as package:target, each run for
# FUZZ_TIME by fuzz-smoke. New inputs go to the go command's own cache, not
# the tree; the minimizer's default budget (60s an input) would eat a run this
# short on the 64 KiB-string seeds.
FUZZ_TARGETS = wq:FuzzWQMessageCodec wq:FuzzWQMessageDecode serve:FuzzFrameCodec serve:FuzzFrameDecode sched:FuzzDispatchMatchesFullScan core:FuzzGreedySplitMatchesReference
FUZZ_TIME = 5s

# The *-smoke targets gate (the suites run, their output parses, the
# allocs/op ceilings hold) without recording: their -benchtime 1x/1000x
# numbers go to a temporary file, never over the committed BENCH_*.json.
SMOKE_OUT = tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT;

.PHONY: all build test race test-live vet loc bench bench-smoke bench-alloc bench-alloc-smoke bench-stream bench-stream-smoke serve-bench serve-bench-smoke wq-bench wq-bench-smoke fuzz-smoke whatif-smoke bench-test short ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./... -count=1

# The parallel experiment harness is the concurrency-heavy package; run it
# (and the public facade that drives it) under the race detector, together
# with the pooled event engine, the simulator that recycles its
# slots/handles (harness workers run simulations concurrently), the scheduler
# core under it, the runlog package whose Writer is shared across engine and
# tracer goroutines, the flow layer whose LocalExecutor is documented safe
# for concurrent submissions, the allocator service with the wire layer
# its connections rest on, and the allocator, whose stable memo is read
# without its lock.
race:
	$(GO) test -race ./internal/harness/... ./internal/devent/... ./internal/sim/... ./internal/sched/... ./internal/allocator/... ./internal/serve/... ./internal/wire/... ./internal/runlog/... ./internal/flow/... . -count=1

# The live work-queue engine integration tests (heartbeat loss, bounded
# retry, drain-under-load, ID-collision regressions, the pipelined stress
# suite) under the race detector, with the scheduler core the manager drives
# under its lock; then the result-intake and write-coalescing tests ten times
# over, since the drainer's early Observe shares task state with evictions on
# other goroutines and the yielding flushers share their stages with every
# stager, and with them the bad-frame tests, whose evictions race the results
# staged just ahead of them, and internal/wire's frame-reader and
# group-commit tests (not TestWriterDeadline, which waits out the 5 s write
# deadline).
test-live:
	$(GO) test -race ./internal/wq/... ./internal/sched/... -count=1
	$(GO) test -race ./internal/wq ./internal/wire -run 'TestBurst|TestEvictionBetweenEarlyObserveAndSettle|TestCoalesce|TestLeanResult|TestFrameReader|TestWriterFlushAfterYield|TestBadFrame|TestOversizeFrame|TestProtocolMismatch|TestWorkerProtocolMismatch' -count=10

vet:
	$(GO) vet ./...

# Non-test, non-blank Go lines per internal package and in total: the size
# side of a refactor's before/after, one command on either commit.
loc:
	@total=0; for d in internal/*/; do \
		n=$$(cat $$(ls $$d*.go | grep -v _test.go) | grep -cv '^[[:space:]]*$$'); \
		total=$$((total + n)); \
		printf '%-14s %5d\n' "$$(basename $$d)" "$$n"; \
	done; printf '%-14s %5d\n' total "$$total"

short:
	$(GO) test ./... -short -count=1

# Full benchmark run: measures the simulator dispatch hot path and the
# experiment grid, then records the trajectory point in BENCH_sim.json
# (ns/op, B/op, allocs/op per scenario).
bench:
	$(GO) test $(BENCH_PKGS) -run '^$$' -bench $(BENCH_PATTERN) -benchmem | $(GO) run ./cmd/benchfmt -out BENCH_sim.json

# One-iteration smoke of the same suite, wired into ci so the benchmarks
# (and the benchfmt pipeline) cannot bit-rot unnoticed.
bench-smoke:
	$(SMOKE_OUT) $(GO) test $(BENCH_PKGS) -run '^$$' -bench $(BENCH_PATTERN) -benchmem -benchtime 1x | $(GO) run ./cmd/benchfmt -out "$$tmp"

# Full benchmark run of the allocation path: bucketing-core partitions
# (cold and incremental), the allocator Allocate/Retry/Observe cycle per
# algorithm, and the paper-pool simulation; records BENCH_alloc.json.
bench-alloc:
	$(GO) test $(BENCH_ALLOC_PKGS) -run '^$$' -bench $(BENCH_ALLOC_PATTERN) -benchmem | $(GO) run ./cmd/benchfmt -out BENCH_alloc.json

# One-iteration smoke of the allocation-path suite, wired into ci.
bench-alloc-smoke:
	$(SMOKE_OUT) $(GO) test $(BENCH_ALLOC_PKGS) -run '^$$' -bench $(BENCH_ALLOC_PATTERN) -benchmem -benchtime 1x | $(GO) run ./cmd/benchfmt -out "$$tmp"

# Full streaming run: the 1M-task and 100k-task Source-driven scenarios plus
# the 100k-worker placement-index probes, merged into BENCH_sim.json.
bench-stream:
	$(GO) test $(BENCH_STREAM_PKGS) -run '^$$' -bench $(BENCH_STREAM_PATTERN) -benchmem | $(GO) run ./cmd/benchfmt -merge -out BENCH_sim.json

# ci smoke of the streaming path: the 100k-task scenario and the index
# probes, with the allocs/op ceiling enforced so the window-bounded memory
# contract cannot regress silently. (The capacity index's query correctness
# runs under -race via the sched package in the race target.)
bench-stream-smoke:
	$(SMOKE_OUT) $(GO) test $(BENCH_STREAM_PKGS) -run '^$$' -bench 'BenchmarkStream100k|BenchmarkPlacementIndex|BenchmarkDispatchDeepQueue' -benchmem -benchtime 1x | $(GO) run ./cmd/benchfmt -max-allocs $(STREAM_MAX_ALLOCS) -out "$$tmp"

# Full service benchmark: sustained allocation throughput against a live
# server at 1, 8, and 16 concurrent tenants; records BENCH_serve.json.
serve-bench:
	$(GO) test $(BENCH_SERVE_PKGS) -run '^$$' -bench $(BENCH_SERVE_PATTERN) -benchmem | $(GO) run ./cmd/benchfmt -out BENCH_serve.json

# ci smoke of the service path, with the per-round-trip allocs/op ceiling
# enforced so the frame hot path cannot silently start allocating. 1000
# iterations rather than 1 so the per-connection goroutine spin-up (up to 64
# driver goroutines started after the timer reset) amortizes out of
# allocs/op — steady state is 0 allocs/op, so the tight ceiling needs the
# setup noise below ~1/op (still tens of ms per scenario).
serve-bench-smoke:
	$(SMOKE_OUT) $(GO) test $(BENCH_SERVE_PKGS) -run '^$$' -bench $(BENCH_SERVE_PATTERN) -benchmem -benchtime 1000x | $(GO) run ./cmd/benchfmt -max-allocs $(SERVE_MAX_ALLOCS) -out "$$tmp"

# Full live-engine benchmark: sustained dispatch/result round trips through
# the wq manager and workers over loopback transport; records BENCH_wq.json.
wq-bench:
	$(GO) test $(BENCH_WQ_PKGS) -run '^$$' -bench $(BENCH_WQ_PATTERN) -benchmem | $(GO) run ./cmd/benchfmt -out BENCH_wq.json

# ci smoke of the live engine, with the per-round-trip allocs/op ceiling
# enforced so the frame hot path cannot silently start allocating. 2000
# iterations amortize the driver/executor goroutine spin-up below ~1/op.
wq-bench-smoke:
	$(SMOKE_OUT) $(GO) test $(BENCH_WQ_PKGS) -run '^$$' -bench $(BENCH_WQ_PATTERN) -skip $(WQ_BURST) -benchmem -benchtime 2000x | $(GO) run ./cmd/benchfmt -max-allocs $(WQ_MAX_ALLOCS) -out "$$tmp"
	$(SMOKE_OUT) $(GO) test $(BENCH_WQ_PKGS) -run '^$$' -bench $(WQ_BURST) -benchmem -benchtime 2000x | $(GO) run ./cmd/benchfmt -max-allocs $(WQ_BURST_MAX_ALLOCS) -out "$$tmp"

# Each fuzz target for a few seconds beyond its committed seeds:
# offline, nothing downloaded, nothing written to the tree.
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		$(GO) test ./internal/$${t%%:*} -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime $(FUZZ_TIME) -fuzzminimizetime 1s || exit 1; \
	done

# End-to-end smoke of the record -> replay -> what-if loop: record a small
# DES run on a churny pool, verify the fidelity replay reproduces the
# recorded footer bit-identically, and rank two counterfactual allocators
# against it. Exercises the same path as `whatif <any saved run log>`.
whatif-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/vinesim -workflow normal -tasks 120 -algorithm greedy-bucketing \
		-des -pool churn:8:600:120:2000 -log "$$tmp/rec.jsonl" >/dev/null 2>&1 && \
	$(GO) run ./cmd/whatif -fidelity -algorithms greedy-bucketing,max-seen -j 2 "$$tmp/rec.jsonl"

# The end-to-end benchmark (bench/, BENCHMARK.json) is a Go module of its
# own, so build, vet and test at the root never compile it: a change to
# Policy, sim.Config or the wq options that breaks it would pass ci and fail
# only in the benchmark pipeline. Its tests (< 1 s) smoke all five workloads.
bench-test:
	cd bench && $(GO) test ./... -count=1

ci: vet build test race test-live whatif-smoke bench-test bench-smoke bench-alloc-smoke bench-stream-smoke serve-bench-smoke wq-bench-smoke fuzz-smoke

clean:
	rm -rf figures-out
