# Tier-1 verify is `make build test`; CI runs all targets below.

GO ?= go

.PHONY: build test race vet lint bench bench-module fuzz-smoke all

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race detector over the packages that actually spawn goroutines or share
# state across them, as CI's race steps run it: the DES run loop and its
# pooled columns, the topology graph's memoized fingerprint, the metrics
# registry, the p2psync primitives, the gpusim kernel runners, the gradient
# queue, the fault-matrix suite (its adaptation tests are CI's third race
# step), the sweep executor, the HTTP service layer with its load generator,
# the schedule builders and cache, the verifier's pool of
# checkers, the training simulator, whose iterations share cached schedules
# across the server's workers, and the synthesis compiler, which emits
# through the builders.
race:
	$(GO) test -race ./internal/des/ ./internal/topology/ ./internal/metrics/... ./internal/p2psync/... ./internal/gpusim/... ./internal/gradqueue/... ./internal/fault/... ./internal/sweep/... ./internal/server/... ./internal/loadgen/... ./internal/collective/... ./internal/schedcheck/ ./internal/train/ ./internal/synth/
	$(GO) test -race -run ParallelMatchesSerial ./internal/experiments/

# The des run-loop benches (Resource, GraphPipeline) and its zero-alloc
# tests, the real-layer benches on built-in and synthesized schedules
# (verify, build, synthesis, execution and one training iteration), plus
# the experiment-level timing report: writes BENCH_ccube.json with each
# in-process bench's median ns/op and MAD over repeated samples (the
# real-layer ones compared with the committed medians), allocs/op held to
# the exact budgets, schedule-cache hit rates and the fig13 cached+parallel
# vs serial+uncached reference.
bench:
	$(GO) test -run ZeroAlloc -bench . -benchmem ./internal/des/
	$(GO) test -run '^$$' -bench Check -benchmem ./internal/schedcheck/
	$(GO) test -run '^$$' -bench Build -benchmem ./internal/collective/
	$(GO) test -run '^$$' -bench Synthesize -benchmem ./internal/synth/
	$(GO) test -run '^$$' -bench Execute -benchmem ./internal/collective/ ./internal/train/
	$(GO) run ./cmd/ccube-bench -fig 13 -benchjson BENCH_ccube.json

vet:
	$(GO) vet ./...

# The served-request benchmark is a nested module (benchmark/go.mod), so the
# root ./... patterns skip it; build and test it against this checkout's API.
# The smoke and traced tests boot real servers over timed windows and are
# left to benchmark/run.sh.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test -skip 'Smoke|Traced' ./...

lint:
	$(GO) run ./cmd/ccube-lint ./...

# Short fuzz bursts of every fuzz target; the seed corpora already replay
# under plain `make test`.
fuzz-smoke:
	$(GO) test -fuzz='^FuzzSplit$$' -fuzztime=10s ./internal/chunk
	$(GO) test -fuzz='^FuzzSplitRates$$' -fuzztime=10s ./internal/chunk
	$(GO) test -fuzz='^FuzzLayerChunkTable$$' -fuzztime=10s ./internal/chunk
	$(GO) test -fuzz='^FuzzPackForest$$' -fuzztime=10s ./internal/synth
	$(GO) test -run='^$$' -fuzz='^FuzzSchedCheck$$' -fuzztime=20s ./internal/schedcheck
	$(GO) test -run='^$$' -fuzz='^FuzzPeriodicWindow$$' -fuzztime=10s ./internal/schedcheck
	$(GO) test -run='^$$' -fuzz='^FuzzPhasePrefix$$' -fuzztime=10s ./internal/schedcheck
	$(GO) test -run='^$$' -fuzz='^FuzzPrefixHeader$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/collective

all: build vet test race lint bench-module
