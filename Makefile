# Tier-1 verify is `make build test`; CI runs all targets below.

GO ?= go

.PHONY: build test race vet lint bench bench-module fuzz-smoke all

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race detector over the packages that actually spawn goroutines or share
# state across them, as CI runs it: the DES run loop and its pooled
# columns, the topology graph's memoized fingerprint, the metrics registry,
# the p2psync primitives, the gpusim kernel runners, the gradient queue, the
# fault-matrix suite with the online-adaptation path (mid-run checkpoint,
# the repair matrix and the patch tests, delta verification, resume, and
# the churn harness that drives them all, in fault, collective and
# schedcheck), the sweep executor, the HTTP service layer with its load
# generator, the schedule builders and cache, the verifier's pool of
# checkers, the training simulator, whose iterations share cached schedules
# across the server's workers, and the synthesis compiler, which emits
# through the builders; then the parallel sweep's determinism.
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

# Short fuzz bursts of every fuzz target, as CI runs them; the seed corpora
# already replay under plain `make test`, so each burst skips the unit
# tests:
#   - the chunk partitions: Split; the rate-weighted split synthesis sizes
#     every chunk with (sizes cover the message with at least a byte each,
#     one stream's chunks differ by at most a byte, and equal rates give
#     Split); the per-layer chunk table;
#   - the indexed forest packer against the reference packer that rescans
#     every pair at every step, on drawn fabrics, seeds, tree counts, detour
#     flags and kill/degrade masks: the forests must be identical;
#   - the verifier, including corruption kind 7, which mutates freshly
#     synthesized schedules, so the lowering path gets adversarial coverage
#     on every push, not just when the seed corpus grows;
#   - the chunk-closed schedules proved by one window (overlapped tree,
#     C-Cube, a synthesized forest): one op mutated past the window must
#     keep its chunk inside the certified window or fail the certificate,
#     the same mutation in every chunk of a stream must be caught by the
#     window alone, and every report must equal the full path's;
#   - the segment certificate (PhasePrefixes): a separated-tree carrier
#     mutated at its barriers or reduction FIFO edges, or a one-phase
#     carrier (C-Cube, a forest), that still passes Check and the
#     certificate must have every derivative pass the full Check;
#   - prefix headers on drawn fabrics, overlapped algorithms or packed
#     forests, sharing flags and chunk counts K >= k: a cache holding the
#     K-chunk carrier serves k chunks as a header over its first ops,
#     deep-equal to a cold build, running identically, counted once.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzSplit$$' -fuzztime=10s ./internal/chunk
	$(GO) test -run='^$$' -fuzz='^FuzzSplitRates$$' -fuzztime=10s ./internal/chunk
	$(GO) test -run='^$$' -fuzz='^FuzzLayerChunkTable$$' -fuzztime=10s ./internal/chunk
	$(GO) test -run='^$$' -fuzz='^FuzzPackForest$$' -fuzztime=10s ./internal/synth
	$(GO) test -run='^$$' -fuzz='^FuzzSchedCheck$$' -fuzztime=20s ./internal/schedcheck
	$(GO) test -run='^$$' -fuzz='^FuzzPeriodicWindow$$' -fuzztime=10s ./internal/schedcheck
	$(GO) test -run='^$$' -fuzz='^FuzzPhasePrefix$$' -fuzztime=10s ./internal/schedcheck
	$(GO) test -run='^$$' -fuzz='^FuzzPrefixHeader$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/collective

all: build vet test race lint bench-module
