# CI and humans run the same commands: .github/workflows/ci.yml invokes
# these targets verbatim.

GO ?= go

# Packages covered by the race-detector job: the adaptive map, the
# representations (the striped and segmented maps it migrates between, and
# the flat open-addressing family for its own tables), the per-entity
# locked set (its slice and map bodies swap under concurrent adds), the
# queues (their embedded sentinel is retired while producers may still hold
# it as the tail), the value cell (internal/core: one writer removes and
# re-puts keys under readers at each of the four maps that publish through
# it), the resilience layer (fault injection and the chaos
# storm), and the load generator (clock goroutine feeding a worker pool
# through a bounded queue, or closed workers claiming from a shared
# counter), and the in-process driver (internal/bench: its workers share
# each figure's object behind one start signal and sum per-worker counts;
# the Retwis runs below go through the same driver). The planned set rows
# race in the root run below.
RACE_PKGS = ./internal/adaptive/... ./internal/bench/... ./internal/core/... ./internal/counter/... ./internal/flatmap/... ./internal/hashmap/... ./internal/set/... ./internal/skiplist/... ./internal/queue/... ./internal/wire/... ./internal/faultnet/... ./internal/chaos/... ./internal/loadgen/... ./internal/usage/... ./internal/advisor/...

# The serving layer (pipelined TCP clients against the shards, an adaptive
# map under forced promote/demote flapping beside them) runs three times: a
# shard's writer is whichever connection goroutine holds its lock, so the
# executor's safety rests on the lock hand-over between them, which only the
# detector checks and only on the schedules a run happens to take.
RACE_SERVER_PKGS = ./internal/server/...

# The segmentations run three times too: the segmented hash map, set and
# skip list all publish through the directory's one CAS-prepend loop, and
# its lost-CAS retry only runs on the interleavings where two inserts race
# for a bucket head; each inserter takes its nodes from a slab of its own,
# which readers walk while the owner fills the rest of it.
RACE_SEGMENT_PKGS = ./internal/segment/...

# Tiny configuration for the bench-smoke job: catches harness bit-rot
# without burning CI minutes; the JSON lands as a workflow artifact. The
# "all" figure set includes the AdaptiveMap workload (Figures 6 and 7) and
# the hot-range pair (AdaptiveMapHotWholesale / AdaptiveMapHotPerRange), so
# the adaptive map's promotion path is exercised on every CI run. The
# layer benchmarks of the ordered maps (BenchmarkOrdered), the hash maps
# (BenchmarkSWMR, the served shard's map, and the pointer-valued
# BenchmarkSegmented), the adaptive map (BenchmarkMap) and the queues
# (BenchmarkQueue: one hot bare queue, and 1<<17 cold planned-size ones,
# at -cpu 1,2), the root figure
# wrappers (BenchmarkFig*), the planner's (BenchmarkConstruct: a repeated
# declaration from every goroutine at once, at -cpu 1,2; 'Construct$'
# leaves out BenchmarkFig2GraphConstruction), the serving
# executor's (BenchmarkStoreRun, its contended case included), the
# codec's (BenchmarkCommandBatch, BenchmarkReplyBatch, BenchmarkWriteReply),
# the wire client's (BenchmarkNetClient), the load driver's (the Zipf
# sampler's BenchmarkZipfian, the op stream's BenchmarkGenerator) and the
# Retwis ops' at lib_table2's shape (BenchmarkTable2: one sub-benchmark per
# op kind on the DEGO backend) run once each so they cannot rot, and so
# does cmd/benchcmp, the alternating-pair runner every performance
# comparison is made with: one -bench pair of the checkout against itself
# over the executor's benchmarks, one over the hash maps', one over the
# queues', one over the planner's, one over the decoders', one over the wire client's, one over
# each of the load driver's two and one over the Retwis ops'.
# CI overrides BENCH_SMOKE_JSON with a bench-<short-sha>.json name so
# artifacts from different commits are diffable side by side.
BENCH_SMOKE_FLAGS = -fig all -threads 1,2 -duration 25ms -warmup 5ms -items 1024 -range 2048
BENCH_SMOKE_JSON  = bench-smoke.json

# Networked retwis smoke: tiny closed-loop run of the Table-2 workload as
# RESP pipelines against a self-hosted dego-server, one latency point; the
# JSON lands as a CI artifact (net-<short-sha>.json, same diffable-trajectory
# idea as the bench smoke).
NET_SMOKE_FLAGS = -net -conns 2 -pipelines 8 -netusers 2000 -netops 20000
NET_SMOKE_JSON  = net-smoke.json

# Open-loop frontier smoke: a short two-rate walk of the served store,
# measured coordinated-omission-free (latency from intended start), once
# over a clean network and once through the -chaos fault-injected dialer.
# Like the other smokes this catches harness bit-rot, not performance;
# both frontier JSONs land as CI artifacts (frontier-<short-sha>.json /
# frontier-chaos-<short-sha>.json) so the latency trajectory stays
# diffable across PRs.
OPENLOOP_SMOKE_FLAGS = -net -arrivals poisson -rates 1k,2k -netduration 300ms -conns 2 -netusers 2000
FRONTIER_JSON        = frontier-smoke.json
FRONTIER_CHAOS_JSON  = frontier-chaos-smoke.json

# Advise smoke: replay the Table-2 workload against the unadjusted
# recorded backend and print what the tuning advisor certifies from the
# traffic alone. The JSON lands as a CI artifact
# (advise-<short-sha>.json) so inference verdicts stay diffable across
# PRs.
ADVISE_SMOKE_FLAGS = -advise -advusers 512 -advthreads 4 -advops 1500
ADVISE_JSON        = advise-smoke.json

# Chaos smoke: the fault-injected storm (internal/chaos) under the race
# detector — seeded resets, stalls and torn writes against a live server,
# asserting zero panics, zero goroutine leaks and exact convergence. The
# run summary lands as a CI artifact (chaos-<short-sha>.json via
# CHAOS_JSON, same diffable-trajectory idea as the other smokes).
CHAOS_JSON = chaos-smoke.json

COVER_PROFILE = coverage.out

.PHONY: build test race bench-smoke server-smoke net-smoke openloop-smoke advise-smoke chaos-smoke cover fuzz-smoke fmt fmt-check vet docs-check api api-check benchmark-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The root package's constructors share interned plans and recycled
# profiles across goroutines, and a recorded object's decorator feeds one
# recorder from every caller while Advise reads it, so the race job also
# runs the root tests that build and record through objects concurrently,
# and the one that fills every planned set row (the segmented set among
# them) from concurrent writers beside readers.
# The Retwis runs write one user's follower set and timeline from the
# owning thread and from the threads that follow or post to that user, and
# the closed-loop net runs' workers claim their ops from one shared counter.
race:
	$(GO) test -race -short $(RACE_PKGS)
	$(GO) test -race -short -run 'ConcurrentConstruction|ConcurrentRecording|TestSetConcurrent' .
	$(GO) test -race -short -run 'TestRunAllBackends|TestRunPreservesInvariants|TestRunNetSelfHostedAndRemote|TestCoordinatedOmissionDemonstration' ./internal/retwis/
	$(GO) test -race -short -count=3 $(RACE_SEGMENT_PKGS)
	$(GO) test -race -short -count=3 $(RACE_SERVER_PKGS)

bench-smoke:
	$(GO) run ./cmd/dego-bench $(BENCH_SMOKE_FLAGS) -json $(BENCH_SMOKE_JSON)
	$(GO) test -run '^$$' -bench Ordered -benchtime 1x ./internal/skiplist
	$(GO) test -run '^$$' -bench 'SWMR|Segmented' -benchtime 1x ./internal/hashmap
	$(GO) test -run '^$$' -bench Map -benchtime 1x ./internal/adaptive
	$(GO) test -run '^$$' -bench Queue -cpu 1,2 -benchtime 1x ./internal/queue
	$(GO) test -run '^$$' -bench Fig -benchtime 1x .
	$(GO) test -run '^$$' -bench 'Construct$$' -cpu 1,2 -benchtime 1x .
	$(GO) test -run '^$$' -bench StoreRun -benchtime 1x ./internal/server
	$(GO) test -run '^$$' -bench 'CommandBatch|ReplyBatch|WriteReply' -benchtime 1x ./internal/wire
	$(GO) test -run '^$$' -bench NetClient -benchtime 1x ./internal/retwis
	$(GO) test -run '^$$' -bench Zipfian -benchtime 1x ./internal/stats
	$(GO) test -run '^$$' -bench Generator -benchtime 1x ./internal/retwis
	$(GO) test -run '^$$' -bench Table2 -benchtime 1x ./internal/retwis
	$(GO) run ./cmd/benchcmp -pairs 1 -bench StoreRun . . -- -benchtime 1x ./internal/server
	$(GO) run ./cmd/benchcmp -pairs 1 -bench 'SWMR|Segmented' . . -- -benchtime 1x ./internal/hashmap
	$(GO) run ./cmd/benchcmp -pairs 1 -bench Queue . . -- -cpu 1,2 -benchtime 1x ./internal/queue
	$(GO) run ./cmd/benchcmp -pairs 1 -bench 'Construct$$' . . -- -cpu 1,2 -benchtime 1x .
	$(GO) run ./cmd/benchcmp -pairs 1 -bench 'CommandBatch|ReplyBatch' . . -- -benchtime 1x ./internal/wire
	$(GO) run ./cmd/benchcmp -pairs 1 -bench NetClient . . -- -benchtime 1x ./internal/retwis
	$(GO) run ./cmd/benchcmp -pairs 1 -bench 'Zipfian|Generator' . . -- -benchtime 1x ./internal/stats
	$(GO) run ./cmd/benchcmp -pairs 1 -bench 'Zipfian|Generator' . . -- -benchtime 1x ./internal/retwis
	$(GO) run ./cmd/benchcmp -pairs 1 -bench Table2 . . -- -benchtime 1x ./internal/retwis

# Boot dego-server on an ephemeral port and run the scripted
# GET/SET/INCR/LRANGE self-session through the repo's own wire client
# (CI images have no redis-cli); every reply is checked, then INFO must show
# the store kind, the single-writer shard map (SWMRMap (M2, SWMR)) and the
# session's keys. The first run arms a 5 s deadline on every read and write;
# the second records usage, and DEBUG ADVISE must certify on every shard the
# single-writer map the store already plans.
server-smoke:
	$(GO) run ./cmd/dego-server -smoke -shards 2 -timeout 5s
	$(GO) run ./cmd/dego-server -smoke -shards 2 -record

net-smoke:
	$(GO) run ./cmd/retwis-bench $(NET_SMOKE_FLAGS) -json $(NET_SMOKE_JSON)

openloop-smoke:
	$(GO) run ./cmd/retwis-bench $(OPENLOOP_SMOKE_FLAGS) -json $(FRONTIER_JSON)
	$(GO) run ./cmd/retwis-bench $(OPENLOOP_SMOKE_FLAGS) -chaos -json $(FRONTIER_CHAOS_JSON)

advise-smoke:
	$(GO) run ./cmd/retwis-bench $(ADVISE_SMOKE_FLAGS) -json $(ADVISE_JSON)

# abspath: go test runs with the package dir as cwd, and the summary should
# land at the repo root where CI picks it up.
chaos-smoke:
	CHAOS_JSON=$(abspath $(CHAOS_JSON)) $(GO) test -race -count=1 ./internal/chaos/...

# The full test suite with coverage, atomic mode so the concurrent tests
# count correctly; prints the total line into the log. CI runs this as its
# one test pass (a separate `make test` would run the suite twice). It is
# also where the two allocation-ceiling tables gate a PR — the serving
# path's (internal/server/alloc_test.go) and construction plus the
# Adjusted* hot paths (alloc_test.go) — both //go:build !race, so `make
# race` skips them: the detector allocates on its own.
cover:
	$(GO) test -covermode=atomic -coverprofile=$(COVER_PROFILE) ./...
	$(GO) tool cover -func=$(COVER_PROFILE) | tail -n 1

# Fuzz smoke: ten seconds of coverage-guided fuzzing per codec target, on
# top of the seed corpus every `go test` runs. -fuzz takes one target per
# run; a failing input lands in internal/wire/testdata/fuzz/. Minimising a
# new input is capped at 1 s: the buffer-edge seeds are 64 KiB, and
# minimising a mutant of one under the default 60 s cap can take the whole
# ten seconds.
FUZZ_SMOKE_FLAGS = -run '^$$' -fuzztime 10s -fuzzminimizetime 1s

fuzz-smoke:
	$(GO) test $(FUZZ_SMOKE_FLAGS) -fuzz '^FuzzReadCommand$$' ./internal/wire
	$(GO) test $(FUZZ_SMOKE_FLAGS) -fuzz '^FuzzReadReply$$' ./internal/wire

# Documentation drift fails the build: every relative Markdown link must
# resolve (cmd/docscheck) and every runnable Example must compile and print
# its documented output. gofmt on the example files is covered by fmt-check,
# which CI runs in the same job.
docs-check:
	$(GO) run ./cmd/docscheck
	$(GO) test -run Example ./...

# The public API surface is a reviewed contract: api/dego.txt is the golden
# snapshot rendered by cmd/apidump (exported decls only, internals elided).
# api-check fails on any undeclared surface change; regenerate deliberately
# with `make api` and commit the diff.
api:
	$(GO) run ./cmd/apidump > api/dego.txt

api-check:
	$(GO) run ./cmd/apidump -check api/dego.txt

# benchmark/ is a nested module (the repo benchmark BENCHMARK.json runs):
# `go build ./... && go test ./...` at the root never descends into it, so
# a root-module refactor can break its build unseen. It compiles against
# internal/retwis, internal/server, internal/wire and the public API.
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

fmt:
	gofmt -l -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...
