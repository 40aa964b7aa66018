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
//	   │  bound(t, k): every variant ranked, no op emitted
//	   │  emit(t, k): chunk c rides tree c mod t; FIFO dep on chunk c-t
//	   ▼
//	collective.Schedule   via collective.Assemble + Validate
//
// Only the variants the search walks to are emitted, and each passes the
// full static verifier in collective.Assemble before it is executed or
// escapes this package. Synthesize memoizes through the schedule
// cache/store under a key that includes the synthesis-config fingerprint,
// so compiled schedules get the exact same correctness gate, staleness
// detection, and warm-start behavior as the built-in algorithms.
package synth

import (
	"context"
	"fmt"
	"slices"
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

// executeFinalists is the most bound-ranked plan variants executed on the
// DES to pick the winner: the static bound orders plans well but cannot
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
	Variants int      // (forest prefix, chunk count) plans ranked, less any that failed verification
	CacheHit bool     // served from the schedule cache/store; Passes empty
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
// links avoided, dead links never used), ranks every candidate tree count
// and chunk count by its static makespan bound, emits, verifies and executes
// on the DES the finalists that can still win, and returns the fastest with
// its timing. The winner is cached — memory, then disk store — under the
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

	var cold *Result
	builder := func() (*collective.Schedule, error) {
		r, err := compileBest(ctx, g, nodes, bytes, opts)
		if err != nil {
			return nil, err
		}
		cold = r
		return r.Schedule, nil
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
	if cold != nil {
		return cold, nil
	}
	// Cache or store hit: the plan metadata was not recomputed, but the
	// load-bearing facts survive in the schedule itself.
	return &Result{Schedule: s, Report: Report{
		Trees:    s.Streams,
		Chunks:   s.Partition.NumChunks(),
		Detours:  planDetours(s),
		CacheHit: true,
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
		for _, k := range chunkCandidates(e.g, e.nodes, e.bytes, t, maxChunks) {
			ranked = append(ranked, variant{trees: t, chunks: k, bound: max(e.bound(t, k))})
		}
	}
	sort.SliceStable(ranked, func(a, b int) bool { return ranked[a].bound < ranked[b].bound })
	return ranked
}

// compileBest runs the plan search: pack once at the tree ceiling, rank
// every (forest prefix, chunk count) variant by the bound the emitter
// derives from its chunk passes, then walk the variants in stable bound
// order. Each one walked is emitted and assembled — collective.Assemble
// runs the full static verifier — and executed on the DES, until
// executeFinalists have run or the next bound is no lower than the best
// makespan so far. The bound is a provable lower bound, so a variant past
// that point could at best tie, and a tie keeps the earlier finalist. A
// variant that fails verification is dropped and the next by bound takes its
// place, so only assembled schedules ever execute or win.
func compileBest(ctx context.Context, g *topology.Graph, nodes []topology.NodeID, bytes int64, opts Options) (*Result, error) {
	forest, err := PackForest(g, nodes, opts.MaxTrees, opts.Seed, !opts.NoDetour)
	if err != nil {
		return nil, err
	}
	e := newEmitter(g, nodes, bytes, forest)
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
			var ce *des.CanceledError
			if isCanceled(err, &ce) {
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
			Trees:    w.trees,
			Chunks:   w.chunks,
			Detours:  detours,
			Passes:   e.passNames(w.trees, w.chunks),
			Variants: len(ranked) - rejected,
		},
		Run: run,
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
