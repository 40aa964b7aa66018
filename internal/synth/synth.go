// Package synth compiles collective schedules for arbitrary physical
// topologies instead of picking from the hand-written algorithm menu.
//
// The compiler follows GC3 (collective programs lowered through one IR)
// seeded by a ForestColl-style generator (throughput-oriented packing of
// channel-disjoint spanning trees over the measured fabric). Its IR is the
// schedule IR itself, schedcheck.Op, and its layout rule is the built-in
// tree algorithms' own: collective lays every routed tree out, so one
// emitter serves both.
//
//	primitive        Allreduce(bytes) over topology.Graph
//	   │  PackForest: bandwidth-weighted, health-aware spanning-tree packing,
//	   │  one greedy pass per root rotation up to the fabric's channel bound
//	   ▼
//	forest           collective.RoutedTrees: edges claim physical (maybe relay) routes
//	   │  collective.OverlappedChunk: one chunk's up hops → root-ready marker → down hops
//	   ▼
//	chunk passes     one per tree, ids relative to the chunk; with the forest,
//	   │             the fabric's plan, memoized per fabric (Cache.Memo)
//	   │  bound(t, k): every variant ranked, no op emitted, chunk sizes
//	   │  from chunk.Streams (chunk c sized by tree c mod t's bottleneck)
//	   ▼
//	collective.Schedule   via collective.AssembleForest(first t trees,
//	                      chunk.SplitRates(bytes, k, tree bottlenecks)):
//	                      chunk c rides tree c mod t, FIFO dep on chunk c-t; Validate
//	                      (or a cached op graph of shape (t, k), new partition)
//
// Only the variants the search walks to are emitted, and each passes the
// static verifier in collective.AssembleForest before it is executed
// or escapes this package, or is a header over an op graph that passed it.
// Synthesize memoizes through the schedule cache under a key that includes
// the synthesis-config fingerprint, so compiled schedules get the exact
// same correctness gate and staleness detection as the built-in
// algorithms. A variant's op graph depends on the graph, the config and
// its tree and chunk counts, never on the message size, so the cache also
// indexes each winner's op graph by that shape: a later compile at
// another size emits any variant of a resident shape as a header over
// it, its own partition and nothing re-checked, exactly as a built-in's
// same-shape miss is served. The forest and its chunk
// passes depend on no size at all, so a cached compile takes them from
// the cache's memo (collective.Cache.Memo), keyed by the graph, its
// fingerprint, the participants and the config: the packing search runs
// once per fabric.
package synth

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"ccube/internal/chunk"
	"ccube/internal/collective"
	"ccube/internal/costmodel"
	"ccube/internal/des"
	"ccube/internal/topology"
)

// DefaultMaxTrees caps how many channel-disjoint spanning trees the packer
// attempts when Options.MaxTrees is zero. More trees mean more aggregate
// bandwidth but also more chunks to feed them; beyond a handful the search
// space stops paying for itself on the fabric sizes this repo models.
const DefaultMaxTrees = 4

// DefaultMaxChunks caps the pipelining chunk-count search when
// Options.MaxChunks is zero.
const DefaultMaxChunks = 64

// executeFinalists is the most bound-ranked plan variants executed on the
// DES to pick the winner: the static bound orders plans well but cannot
// see queueing, so the top few run for real.
const executeFinalists = 3

// Options parameterizes the compiler. The zero value is the default
// configuration; every field that shapes the output is part of
// Fingerprint, the schedule cache's key component.
type Options struct {
	// MaxTrees caps the spanning-tree packing (0 = DefaultMaxTrees). The
	// search also considers every prefix of the packed forest, so this is
	// a ceiling, not a demand.
	MaxTrees int
	// MaxChunks caps the chunk-count search (0 = DefaultMaxChunks).
	MaxChunks int
	// Seed picks the root-order rotation the packing search tries first,
	// which keeps its forest when no later rotation packs more trees or
	// more summed bottleneck.
	Seed int64
	// NoDetour disables relay-spliced two-hop attachments during packing.
	NoDetour bool
	// NoCache bypasses the schedule cache (benchmarks measuring raw
	// compile time). Not part of the fingerprint: it changes where the
	// schedule comes from, never what it is.
	NoCache bool
}

func (o Options) normalized() Options {
	if o.MaxTrees <= 0 {
		o.MaxTrees = DefaultMaxTrees
	}
	if o.MaxChunks <= 0 {
		o.MaxChunks = DefaultMaxChunks
	}
	return o
}

// Fingerprint renders the synthesis configuration as a short stable string:
// every output-shaping knob and the pass list. It is the SynthKey of the
// schedule cache's key, so two configs that could compile different
// schedules for the same graph and size can never alias to one entry. The
// cache lives in one process, which runs one compiler, so the string names
// no compiler version.
func (o Options) Fingerprint() string {
	o = o.normalized()
	detour := 1
	if o.NoDetour {
		detour = 0
	}
	return fmt.Sprintf("t%d.k%d.s%d.d%d.lift-parallelize-route-pipeline",
		o.MaxTrees, o.MaxChunks, o.Seed, detour)
}

// Report describes how a schedule was synthesized.
type Report struct {
	Trees    int      // spanning trees the winning plan uses
	Chunks   int      // pipeline chunk count of the winning plan
	Detours  int      // relay-spliced tree edges in the winning plan
	Passes   []string // compilation stages of the winning plan, in order
	Variants int      // (forest prefix, chunk count) plans ranked, less any that failed verification
	CacheHit bool     // served from the schedule cache; Passes empty
	// partition is the winning schedule's own, which Shares reads.
	partition chunk.Partition
}

// Shares returns each tree's fraction of the message, derived from the
// schedule's partition (chunk c rides tree c mod Trees) rather than
// stored, so a cache hit reports the shares of the compile that filled
// the cache. It is nil for a Report that Synthesize did not return.
func (r Report) Shares() []float64 {
	if r.partition.TotalBytes == 0 {
		return nil
	}
	shares := make([]float64, r.Trees)
	for c, size := range r.partition.Sizes {
		shares[c%r.Trees] += float64(size)
	}
	for i := range shares {
		shares[i] /= float64(r.partition.TotalBytes)
	}
	return shares
}

// Result is a compiled collective.
type Result struct {
	Schedule *collective.Schedule
	Report   Report
	// Run is the DES run that picked the schedule on a cold compile, so the
	// caller need not execute it again. It is nil on a cache hit.
	Run *collective.Result
}

// Synthesize compiles an AllReduce schedule for the graph's GPUs: packs
// channel-disjoint spanning trees weighted by effective bandwidth (degraded
// links avoided, dead links never used), up to as many as the fabric's
// channels hold, once per fabric, ranks every candidate tree count
// and chunk count by its static makespan bound, emits, verifies and executes
// on the DES the finalists that can still win, and returns the fastest with
// its timing. The winner is cached under the topology fingerprint plus
// Options.Fingerprint, with the same verify-on-miss invariant as the
// built-in algorithms, and its op graph serves later compiles that pick
// its tree and chunk counts.
func Synthesize(ctx context.Context, g *topology.Graph, bytes int64, opts Options) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("synth: nil graph")
	}
	if bytes <= 0 {
		return nil, fmt.Errorf("synth: message size %d", bytes)
	}
	opts = opts.normalized()
	nodes := g.GPUs()
	if len(nodes) < 2 {
		return nil, fmt.Errorf("synth: %d participants", len(nodes))
	}

	cfg := collective.Config{
		Graph:     g,
		Algorithm: collective.AlgSynth,
		Bytes:     bytes,
		SynthKey:  opts.Fingerprint(),
	}
	var cache *collective.Cache
	if !opts.NoCache {
		cache = collective.DefaultCache
	}
	var cold *Result
	builder := func() (*collective.Schedule, error) {
		r, err := compileBest(ctx, cache, cfg, nodes, opts)
		if err != nil {
			return nil, err
		}
		cold = r
		return r.Schedule, nil
	}

	var s *collective.Schedule
	var err error
	if cache == nil {
		s, err = builder()
	} else {
		s, err = cache.BuildWith(cfg, builder)
	}
	if err != nil {
		return nil, err
	}
	if cold != nil {
		return cold, nil
	}
	// Cache hit: the plan metadata was not recomputed, but the
	// load-bearing facts survive in the schedule itself.
	return &Result{Schedule: s, Report: Report{
		Trees:     s.Streams,
		Chunks:    s.Partition.NumChunks(),
		Detours:   planDetours(s),
		CacheHit:  true,
		partition: s.Partition,
	}}, nil
}

// variant is one (forest prefix, chunk count) plan, ranked by its bound.
// It is emitted, and so verified, only if the search walks to it.
type variant struct {
	trees  int
	chunks int
	bound  des.Time
}

// rank returns every (forest prefix, chunk count) variant the search
// considers, in stable order of bound: ties keep the order of fewer trees,
// then fewer chunks.
func (e *emitter) rank(maxChunks int) []variant {
	var ranked []variant
	for t := 1; t <= len(e.passes); t++ {
		for _, k := range chunkCandidates(e.fabric, e.bytes, t, maxChunks) {
			ranked = append(ranked, variant{trees: t, chunks: k, bound: max(e.bound(t, k))})
		}
	}
	sort.SliceStable(ranked, func(a, b int) bool { return ranked[a].bound < ranked[b].bound })
	return ranked
}

// compileBest runs the plan search for cfg's graph and size: take the
// fabric's plan (the forest packed at the tree ceiling, memoized unless
// cache is nil), rank every (forest prefix, chunk count) variant by the
// bound the emitter derives from its chunk passes, then walk the variants
// in stable bound order. Each one walked is emitted — a header over a
// verified op graph of its shape resident in cache, when there is one,
// else assembled by collective.AssembleForest, which runs the full static
// verifier — and executed on the DES, until executeFinalists have run or
// the next bound is no lower than the best makespan so far. The bound is a
// provable lower bound, so a variant past that point could at best tie,
// and a tie keeps the earlier finalist. A variant that fails verification
// is dropped and the next by bound takes its place, so only verified
// schedules ever execute or win. cache is nil for a NoCache compile.
func compileBest(ctx context.Context, cache *collective.Cache, cfg collective.Config, nodes []topology.NodeID, opts Options) (*Result, error) {
	g, bytes := cfg.Graph, cfg.Bytes
	p, err := fabricPlan(cache, cfg, nodes, opts)
	if err != nil {
		return nil, err
	}
	e := p.emitter(g, nodes, bytes)
	e.cache, e.cfg = cache, cfg
	ranked := e.rank(opts.MaxChunks)

	var w variant
	var best *collective.Schedule
	var run *collective.Result
	executed, rejected := 0, 0
	for _, v := range ranked {
		if executed == executeFinalists || (best != nil && v.bound >= run.Total) {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("synth: compilation canceled: %w", &des.CanceledError{Cause: err})
		}
		sched, err := e.emit(v.trees, v.chunks)
		if err != nil {
			// A plan that fails verification is discarded, never patched.
			rejected++
			continue
		}
		executed++
		res, err := sched.ExecuteCtx(ctx)
		if err != nil {
			if isCanceled(err) {
				return nil, err
			}
			continue
		}
		if best == nil || res.Total < run.Total {
			w, best, run = v, sched, res
		}
	}
	if executed == 0 {
		return nil, fmt.Errorf("synth: no compilable plan for %d participants at %d bytes", len(nodes), bytes)
	}
	if best == nil {
		return nil, fmt.Errorf("synth: no plan executed successfully")
	}
	detours := 0
	for _, p := range e.passes[:w.trees] {
		detours += p.detours
	}
	return &Result{
		Schedule: best,
		Report: Report{
			Trees:     w.trees,
			Chunks:    w.chunks,
			Detours:   detours,
			Passes:    e.passNames(w.trees, w.chunks),
			Variants:  len(ranked) - rejected,
			partition: best.Partition,
		},
		Run: run,
	}, nil
}

// fabricPlan returns the plan for cfg's graph and the participants under
// opts: the forest PackForest packs at the tree ceiling, laid out chunk by
// chunk. A NoCache compile (nil cache) packs and lays it out itself; any
// other takes it from cache.Memo, keyed by the graph, its fingerprint, the
// participants and opts.Fingerprint() (cfg.SynthKey), so the search runs
// once per fabric and every later compile over it, at any size, shares it.
func fabricPlan(cache *collective.Cache, cfg collective.Config, nodes []topology.NodeID, opts Options) (*plan, error) {
	build := func() (any, error) {
		f, err := PackForest(cfg.Graph, nodes, opts.MaxTrees, opts.Seed, !opts.NoDetour)
		if err != nil {
			return nil, err
		}
		return newPlan(cfg.Graph, nodes, f), nil
	}
	var v any
	var err error
	if cache == nil {
		v, err = build()
	} else {
		cfg.Nodes = nodes
		v, err = cache.Memo(cfg, build)
	}
	if err != nil {
		return nil, err
	}
	return v.(*plan), nil
}

// planDetours counts the detoured tree edges of a compiled schedule's plan:
// a detoured edge writes one relay slot per chunk it carries, and chunks
// 0..Streams-1 ride each tree exactly once.
func planDetours(s *collective.Schedule) int {
	n := 0
	ops := s.Program().Ops
	for i := range ops {
		if int(ops[i].Chunk) < s.Streams && ops[i].Dst.IsRelay() {
			n++
		}
	}
	return n
}

// chunkCandidates returns the chunk counts the pipelining search evaluates
// for a t-tree plan: multiples of t (round-robin keeps every tree fed) in
// powers of two, seeded around the cost model's K_opt (Eq. 4) for the
// fabric's alpha/beta (fabricParams), capped by the configured maximum and
// by the message size (no zero-byte chunks).
func chunkCandidates(fabric costmodel.Params, bytes int64, t, maxChunks int) []int {
	if int64(t) > bytes {
		return nil
	}
	fabric.N = float64(bytes)
	kOpt := costmodel.KOpt(fabric, maxChunks)
	var out []int
	add := func(k int) {
		if k < t || k > maxChunks || int64(k) > bytes || slices.Contains(out, k) {
			return
		}
		out = append(out, k)
	}
	for m := 1; ; m *= 2 {
		k := t * m
		if k > maxChunks || int64(k) > bytes {
			break
		}
		add(k)
	}
	// Snap K_opt to the nearest feasible multiple of t.
	if kOpt > 0 {
		add((kOpt / t) * t)
		add(((kOpt + t - 1) / t) * t)
	}
	sort.Ints(out)
	return out
}

// fabricParams derives the cost model's terms for p participants on g,
// with no message size: representative alpha/beta from the healthy
// channels, the largest latency and the slowest effective bandwidth, the
// conservative ends a pipelined schedule must amortize. They walk every
// channel, so a compile derives them once.
func fabricParams(g *topology.Graph, p int) costmodel.Params {
	fabric := costmodel.Params{P: p}
	minBW := 0.0
	for _, ch := range g.Channels() {
		if ch.Down() {
			continue
		}
		if l := ch.Latency.Seconds(); l > fabric.Alpha {
			fabric.Alpha = l
		}
		if bw := ch.EffectiveBandwidth(); minBW == 0 || bw < minBW {
			minBW = bw
		}
	}
	if minBW > 0 {
		fabric.Beta = 1 / minBW
	}
	return fabric
}

// isCanceled reports whether err wraps a *des.CanceledError anywhere in its
// tree, errors.Join included.
func isCanceled(err error) bool {
	var ce *des.CanceledError
	return errors.As(err, &ce)
}

// String renders the report compactly for logs and tables.
func (r Report) String() string {
	src := "compiled"
	if r.CacheHit {
		src = "cached"
	}
	var shares strings.Builder
	for i, f := range r.Shares() {
		if i > 0 {
			shares.WriteByte(' ')
		}
		fmt.Fprintf(&shares, "%.3f", f)
	}
	return fmt.Sprintf("%s: trees=%d chunks=%d detours=%d variants=%d shares=[%s] passes=[%s]",
		src, r.Trees, r.Chunks, r.Detours, r.Variants, shares.String(), strings.Join(r.Passes, " "))
}
