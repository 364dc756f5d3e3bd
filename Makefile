GO ?= go

# The wire fuzz targets of both protocols, the run-log reader, the scheduler
# core's early-ending dispatch pass against a full walk, the block-pruned
# greedy sweep against the recursion that costs every break, the exhaustive
# sweep's warm search brackets against a cold search, the record list's
# in-place merge against a full re-sort, the workflow trace reader,
# and the pooled event engine against its reference queue, as
# package:target, each run for FUZZ_TIME by fuzz-smoke. New inputs go to the go
# command's own cache, not the tree; the minimizer's default budget (60s an
# input) would eat a run this short on the 64 KiB-string seeds.
FUZZ_TARGETS = wq:FuzzWQMessageCodec wq:FuzzWQMessageDecode serve:FuzzFrameCodec serve:FuzzFrameDecode runlog:FuzzRead sched:FuzzDispatchMatchesFullScan core:FuzzGreedySplitMatchesReference core:FuzzExhaustiveWarmScratchMatchesCold record:FuzzRecordListMergeMatchesResort trace:FuzzReadWorkflow devent:FuzzEngineMatchesOracle
FUZZ_TIME = 5s

.PHONY: all build test race test-live stress vet loc surface bench-smoke fuzz-smoke whatif-smoke bench-test short ci clean

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
# under its lock; then TEST_LIVE_RUN ten times over: the result-batching and
# write-coalescing tests, since each reader settles its socket read's results
# under the manager lock while evictions run on other goroutines and every
# sender stages onto an outbox whose writer goroutine takes the stage from
# under them, the worker's
# reader/writer tests, whose reader stages results and pongs on its
# connection's outbox while timed attempts stage theirs, and with them the
# bad-frame tests, whose evictions race the results staged just ahead of
# them, internal/wire's frame-reader tests, its outbox's group-commit and
# close tests (not TestOutboxBound, which waits out the 5 s write deadline)
# and the test that no outbox writer outlives its connection on any end, the
# serve reader that keeps reading while its client stops, and the server
# lifecycle's own tests with the wq and serve accept and close-time tests
# built on it. Every name in the list must match a test the three packages
# define, so a renamed test fails here instead of dropping out of the
# repeated run.
TEST_LIVE_RUN = TestBurst|TestCoalesce|TestWorkerKeepsReadingWhileWritesBlock|TestWorkerWritesResultsBeforeHangup|TestWorkerCancelStopsTimedAttempts|TestLeanResult|TestFrameReader|TestOutboxGroupCommit|TestOutboxCloseWritesTheStage|TestNoWriterOutlivesItsConnection|TestServeReaderKeepsReadingWhileClientStopsReading|TestBadFrame|TestOversizeFrame|TestProtocolMismatch|TestWorkerProtocolMismatch|TestServerFirstFrameMismatch|TestServerIdleWhenReaderWouldBlock|TestServerCloseForceClosesAfterGrace|TestServerAcceptRetriesAfterError|TestCloseForceClosesWorkerThatStaysConnected|TestAcceptRetriesAndTurnsAwayAfterClose
TEST_LIVE_PKGS = ./internal/wq ./internal/wire ./internal/serve

test-live:
	$(GO) test -race ./internal/wq/... ./internal/sched/... -count=1
	@listed=$$($(GO) test -list . $(TEST_LIVE_PKGS)) || { echo "$$listed"; exit 1; }; \
	for name in $$(echo '$(TEST_LIVE_RUN)' | tr '|' ' '); do \
		echo "$$listed" | grep -q -- "$$name" || { echo "test-live: no test in $(TEST_LIVE_PKGS) matches $$name"; exit 1; }; \
	done
	$(GO) test -race $(TEST_LIVE_PKGS) -run '$(TEST_LIVE_RUN)' -count=10

# The live packages' tests twenty times over at one and at two Ps, beside two
# busy loops of the target's own that compete for the CPUs: a test that
# asserts on state another goroutine has not reached yet fails here, not one
# `make test` in a hundred. It takes ~7 minutes on 2 vCPUs, the wq package
# alone ~5.5 (hence the timeout), so ci leaves it out.
stress:
	@sh -c 'while :; do :; done' & b1=$$!; sh -c 'while :; do :; done' & b2=$$!; \
	trap 'kill $$b1 $$b2 2>/dev/null' EXIT INT TERM; \
	$(GO) test -count=20 -cpu 1,2 -timeout 30m ./internal/wq ./internal/serve ./internal/wire

# go vet, then gofmt: a file gofmt would rewrite fails the target.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists files that are not gofmt-formatted:"; echo "$$unformatted"; exit 1; \
	fi

# Non-test, non-blank Go lines per internal package and in total, then the
# same count over every command under cmd/: the size side of a refactor's
# before/after, one command on either commit.
loc:
	@total=0; for d in internal/*/; do \
		n=$$(cat $$(ls $$d*.go | grep -v _test.go) | grep -cv '^[[:space:]]*$$'); \
		total=$$((total + n)); \
		printf '%-14s %5d\n' "$$(basename $$d)" "$$n"; \
	done; printf '%-14s %5d\n' total "$$total"; \
	printf '%-14s %5d\n' cmd "$$(cat $$(ls cmd/*/*.go | grep -v _test.go) | grep -cv '^[[:space:]]*$$')"

# The public surface: the facade's exported declarations and every command's
# flags, parsed offline and held to testdata/surface.golden (`test` runs it
# too). After an intended change: go test . -run TestSurface -update
surface:
	$(GO) test . -run '^TestSurface$$' -count=1

short:
	$(GO) test ./... -short -count=1

# Every benchmark once, so none can bit-rot unnoticed; BenchmarkStream1M
# (about a minute) is left out. The allocs/op ceilings are not checked here:
# they are tests beside the benchmarks they measure, and run in `test`.
bench-smoke:
	$(GO) test ./... -run '^$$' -bench . -benchtime 1x -skip 'BenchmarkStream1M$$'

# Each fuzz target for a few seconds beyond its committed seeds:
# offline, nothing downloaded, nothing written to the tree.
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		$(GO) test ./internal/$${t%%:*} -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime $(FUZZ_TIME) -fuzzminimizetime 1s || exit 1; \
	done

# End-to-end smoke of the record -> replay -> what-if loop: record a small
# DES run on a churny pool, verify the fidelity replay reproduces the
# recorded footer bit-identically, and rank two counterfactual allocators
# against it. Exercises the same path as `dynalloc whatif <any saved run log>`.
whatif-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/dynalloc run -workflow normal -tasks 120 -algorithm greedy-bucketing \
		-des -pool churn:8:600:120:2000 -log "$$tmp/rec.jsonl" >/dev/null 2>&1 && \
	$(GO) run ./cmd/dynalloc whatif -fidelity -algorithm greedy-bucketing,max-seen -j 2 "$$tmp/rec.jsonl"

# The end-to-end benchmark (bench/, BENCHMARK.json) is a Go module of its
# own, so build, vet and test at the root never compile it: a change to
# Policy, sim.Config or the wq options that breaks it would pass ci and fail
# only in the benchmark pipeline. Its tests (< 1 s) smoke all five workloads.
bench-test:
	cd bench && $(GO) test ./... -count=1

ci: vet build test race test-live whatif-smoke bench-test bench-smoke fuzz-smoke

clean:
	rm -rf figures-out
