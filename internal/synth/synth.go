// Package synth compiles collective schedules for arbitrary physical
// topologies instead of picking from the hand-written algorithm menu.
//
// The compiler follows GC3 (collective programs lowered through one IR)
// seeded by a ForestColl-style generator (throughput-oriented packing of
// channel-disjoint spanning trees over the measured fabric). Its IR is the
// schedule IR itself, schedcheck.Op: one emitter loop over the forest
// writes every plan variant straight into it.
//
//	primitive        Allreduce(bytes) over topology.Graph
//	   │  PackForest: bandwidth-weighted, health-aware spanning-tree packing
//	   ▼
//	forest           trees whose edges claim physical (maybe relay) routes
//	   │  newChunkPass: one chunk's up hops → root-ready marker → down hops
//	   ▼
//	chunk passes     one per tree, ids relative to the chunk
//	   │  emit(t, k): chunk c rides tree c mod t; FIFO dep on chunk c-t
//	   ▼
//	collective.Schedule   via collective.Assemble + Validate
//
// Every emitted schedule passes the full static verifier before it is
// ranked or escapes this package, and Synthesize memoizes through the
// schedule cache/store under a key that includes the synthesis-config
// fingerprint, so compiled schedules get the exact same correctness gate,
// staleness detection, and warm-start behavior as the built-in algorithms.
package synth

import (
	"context"
	"fmt"
	"sort"
	"strings"

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

// executeFinalists is how many bound-ranked plan variants are executed on
// the DES to pick the winner: the static bound orders plans well but cannot
// see queueing, so the top few run for real.
const executeFinalists = 3

// Options parameterizes the compiler. The zero value is the default
// configuration; every field that shapes the output is part of
// Fingerprint, the cache/store content-address component.
type Options struct {
	// MaxTrees caps the spanning-tree packing (0 = DefaultMaxTrees). The
	// search also considers every prefix of the packed forest, so this is
	// a ceiling, not a demand.
	MaxTrees int
	// MaxChunks caps the chunk-count search (0 = DefaultMaxChunks).
	MaxChunks int
	// Seed rotates the packer's root order; distinct seeds explore
	// distinct packings.
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
// the pass list plus every output-shaping knob. It is the SynthKey of the
// cache/store content address, so two configs that could compile different
// schedules for the same graph and size can never alias to one entry.
func (o Options) Fingerprint() string {
	o = o.normalized()
	detour := 1
	if o.NoDetour {
		detour = 0
	}
	return fmt.Sprintf("v1.t%d.k%d.s%d.d%d.lift-parallelize-route-pipeline",
		o.MaxTrees, o.MaxChunks, o.Seed, detour)
}

// Report describes how a schedule was synthesized.
type Report struct {
	Trees    int      // spanning trees the winning plan uses
	Chunks   int      // pipeline chunk count of the winning plan
	Detours  int      // relay-spliced tree edges in the winning plan
	Passes   []string // compilation stages of the winning plan, in order
	Variants int      // (forest prefix, chunk count) plans evaluated
	CacheHit bool     // served from the schedule cache/store; Passes empty
}

// Result is a compiled collective.
type Result struct {
	Schedule *collective.Schedule
	Report   Report
}

// Synthesize compiles an AllReduce schedule for the graph's GPUs: packs
// channel-disjoint spanning trees weighted by effective bandwidth (degraded
// links avoided, dead links never used), emits a verified schedule for
// every candidate tree count and chunk count, ranks the plans by their static
// makespan bound, executes the finalists on the DES, and returns the
// fastest. The winner is cached — memory, then disk store — under the
// topology fingerprint plus Options.Fingerprint, with the same
// verify-on-miss invariant as the built-in algorithms.
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

	var rep Report
	cold := false
	builder := func() (*collective.Schedule, error) {
		cold = true
		s, r, err := compileBest(ctx, g, nodes, bytes, opts)
		if err != nil {
			return nil, err
		}
		rep = r
		return s, nil
	}

	var s *collective.Schedule
	var err error
	if opts.NoCache {
		s, err = builder()
	} else {
		cfg := collective.Config{
			Graph:     g,
			Algorithm: collective.AlgSynth,
			Bytes:     bytes,
			SynthKey:  opts.Fingerprint(),
		}
		s, err = collective.DefaultCache.BuildWith(cfg, builder)
	}
	if err != nil {
		return nil, err
	}
	if !cold {
		// Cache or store hit: the plan metadata was not recomputed, but the
		// load-bearing facts survive in the schedule itself.
		rep = Report{
			Trees:    s.Streams,
			Chunks:   s.Partition.NumChunks(),
			Detours:  planDetours(s),
			CacheHit: true,
		}
	}
	return &Result{Schedule: s, Report: rep}, nil
}

// plan is one verified (forest prefix, chunk count) variant.
type plan struct {
	trees  int
	chunks int
	sched  *collective.Schedule
	bound  des.Time
}

// compileBest runs the plan search: pack once at the tree ceiling, emit and
// verify every (forest prefix, chunk count) candidate, rank by static bound,
// execute the finalists, return the fastest schedule.
func compileBest(ctx context.Context, g *topology.Graph, nodes []topology.NodeID, bytes int64, opts Options) (*collective.Schedule, Report, error) {
	forest, err := PackForest(g, nodes, opts.MaxTrees, opts.Seed, !opts.NoDetour)
	if err != nil {
		return nil, Report{}, err
	}
	e := newEmitter(g, nodes, bytes, forest)

	// The finalists are the first executeFinalists plans of a stable sort
	// by bound, kept as the variants stream by so that every other variant
	// is garbage as soon as it is ranked.
	var top [executeFinalists]plan
	finalists, variants := 0, 0
	for t := 1; t <= len(e.passes); t++ {
		for _, k := range chunkCandidates(g, nodes, bytes, t, opts.MaxChunks) {
			if err := ctx.Err(); err != nil {
				return nil, Report{}, fmt.Errorf("synth: compilation canceled: %w", &des.CanceledError{Cause: err})
			}
			sched, err := e.emit(t, k)
			if err != nil {
				// A plan that fails verification is discarded, never patched:
				// the search must only ever rank proven schedules.
				continue
			}
			bound, err := sched.MakespanBound()
			if err != nil {
				continue
			}
			variants++
			i := finalists
			for i > 0 && top[i-1].bound > bound {
				i--
			}
			if i < executeFinalists {
				finalists = min(finalists+1, executeFinalists)
				copy(top[i+1:finalists], top[i:finalists-1])
				top[i] = plan{trees: t, chunks: k, sched: sched, bound: bound}
			}
		}
	}
	if variants == 0 {
		return nil, Report{}, fmt.Errorf("synth: no compilable plan for %d participants at %d bytes", len(nodes), bytes)
	}

	best := -1
	var bestTotal des.Time
	for i := range top[:finalists] {
		res, err := top[i].sched.ExecuteCtx(ctx)
		if err != nil {
			var ce *des.CanceledError
			if isCanceled(err, &ce) {
				return nil, Report{}, err
			}
			continue
		}
		if best < 0 || res.Total < bestTotal {
			best, bestTotal = i, res.Total
		}
	}
	if best < 0 {
		return nil, Report{}, fmt.Errorf("synth: no plan executed successfully")
	}
	w := top[best]
	detours := 0
	for _, p := range e.passes[:w.trees] {
		detours += p.detours
	}
	return w.sched, Report{
		Trees:    w.trees,
		Chunks:   w.chunks,
		Detours:  detours,
		Passes:   e.passNames(w.trees, w.chunks),
		Variants: variants,
	}, nil
}

// planDetours counts the detoured tree edges of a compiled schedule's plan:
// a detoured edge writes one relay slot per chunk it carries, and chunks
// 0..Streams-1 ride each tree exactly once.
func planDetours(s *collective.Schedule) int {
	n := 0
	ops := s.Program().Ops
	for i := range ops {
		if ops[i].Chunk < s.Streams && ops[i].Dst.IsRelay() {
			n++
		}
	}
	return n
}

// chunkCandidates returns the chunk counts the pipelining search evaluates
// for a t-tree plan: multiples of t (round-robin keeps every tree fed) in
// powers of two, seeded around the cost model's K_opt (Eq. 4) for the
// fabric's alpha/beta, capped by the configured maximum and by the message
// size (no zero-byte chunks).
func chunkCandidates(g *topology.Graph, nodes []topology.NodeID, bytes int64, t, maxChunks int) []int {
	if int64(t) > bytes {
		return nil
	}
	alpha, beta := fabricParams(g)
	kOpt := costmodel.KOpt(costmodel.Params{Alpha: alpha, Beta: beta, P: len(nodes), N: float64(bytes)}, maxChunks)
	var out []int
	seen := map[int]bool{}
	add := func(k int) {
		if k >= t && k <= maxChunks && int64(k) <= bytes && !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
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

// fabricParams derives representative alpha/beta terms from the healthy
// channels: the largest latency and the slowest effective bandwidth, the
// conservative ends a pipelined schedule must amortize.
func fabricParams(g *topology.Graph) (alpha, beta float64) {
	minBW := 0.0
	for _, ch := range g.Channels() {
		if ch.Down() {
			continue
		}
		if l := ch.Latency.Seconds(); l > alpha {
			alpha = l
		}
		if bw := ch.EffectiveBandwidth(); minBW == 0 || bw < minBW {
			minBW = bw
		}
	}
	if minBW > 0 {
		beta = 1 / minBW
	}
	return alpha, beta
}

// isCanceled reports whether err wraps a *des.CanceledError, binding it.
func isCanceled(err error, ce **des.CanceledError) bool {
	for e := err; e != nil; {
		if c, ok := e.(*des.CanceledError); ok {
			*ce = c
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

// String renders the report compactly for logs and tables.
func (r Report) String() string {
	src := "compiled"
	if r.CacheHit {
		src = "cached"
	}
	return fmt.Sprintf("%s: trees=%d chunks=%d detours=%d variants=%d passes=[%s]",
		src, r.Trees, r.Chunks, r.Detours, r.Variants, strings.Join(r.Passes, " "))
}
