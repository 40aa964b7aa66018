# Tier-1 verify is `make build test`; CI runs all targets below.

GO ?= go

.PHONY: build test race vet lint bench bench-module fuzz-smoke all

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race detector over the packages that actually spawn goroutines: the
# p2psync primitives, the gpusim kernel runners, and the gradient queue —
# plus the fault-matrix suite, which drives repairs end to end, the sweep
# executor with its parallel-vs-serial determinism tests, the HTTP service
# layer with its load generator, and the on-disk schedule store (shared by
# concurrent caches and processes).
race:
	$(GO) test -race ./internal/p2psync/... ./internal/gpusim/... ./internal/gradqueue/... ./internal/fault/... ./internal/sweep/... ./internal/server/... ./internal/loadgen/... ./internal/collective/...
	$(GO) test -race -run ParallelMatchesSerial ./internal/experiments/

# The des run-loop benches (Resource, GraphPipeline) and its zero-alloc
# tests, the real-layer benches on built-in and synthesized schedules
# (verify, build, synthesis, execution and one training iteration), plus
# the experiment-level timing report: writes BENCH_ccube.json with each
# in-process bench's median ns/op and MAD over repeated samples (the
# real-layer ones compared with the committed medians), allocs/op held to
# the exact budgets, schedule-cache hit rates, the fig13 cached+parallel vs
# serial+uncached reference, and the schedule-store cold vs warm fig13
# timings with the corruption probe.
bench:
	$(GO) test -run ZeroAlloc -bench . -benchmem ./internal/des/
	$(GO) test -run '^$$' -bench Check -benchmem ./internal/schedcheck/
	$(GO) test -run '^$$' -bench Build -benchmem ./internal/collective/
	$(GO) test -run '^$$' -bench Synthesize -benchmem ./internal/synth/
	$(GO) test -run '^$$' -bench Execute -benchmem ./internal/collective/ ./internal/train/
	rm -rf /tmp/ccube-bench-store && $(GO) run ./cmd/ccube-bench -fig 13 -benchjson BENCH_ccube.json -store /tmp/ccube-bench-store

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
	$(GO) test -fuzz=FuzzSplit -fuzztime=10s ./internal/chunk
	$(GO) test -fuzz=FuzzLayerChunkTable -fuzztime=10s ./internal/chunk
	$(GO) test -fuzz=FuzzSchedCheck -fuzztime=20s ./internal/schedcheck

all: build vet test race lint bench-module
