package synth

import (
	"fmt"

	"ccube/internal/chunk"
	"ccube/internal/collective"
	"ccube/internal/costmodel"
	"ccube/internal/des"
	"ccube/internal/schedcheck"
	"ccube/internal/topology"
)

// chunkPass is one chunk's trip through one packed tree, in the schedule
// IR, as collective.OverlappedChunk lays it out: the reduction up the tree,
// the root-ready marker, and the broadcast back down, every tree edge
// expanded into one op per physical hop of the route it claimed. Op ids,
// deps included, are relative to the chunk's first op. It is part of a
// memoized plan, so nothing writes it once it is built.
type chunkPass struct {
	pass    schedcheck.Program
	detours int     // tree edges routed through a relay GPU
	rate    float64 // the tree's bottleneck bandwidth, its chunks' weight
	// hops counts the pass's ops per channel: one chunk's load on each
	// channel the tree rides, in units of that chunk's transfer time.
	hops []channelHops
}

// channelHops is how many of one chunk pass's ops ride a channel.
type channelHops struct {
	ch topology.ChannelID
	n  int64
}

// newChunkPass lays one chunk out over tree t and counts its hops per
// channel.
func newChunkPass(t *Tree, nodes []topology.NodeID) (*chunkPass, error) {
	pass, err := collective.OverlappedChunk(nodes, t.RoutedTree)
	if err != nil {
		return nil, err
	}
	p := &chunkPass{pass: pass, detours: t.Detours, rate: t.Bottleneck}
	for i := range pass.Ops {
		if pass.Ops[i].Marker() {
			continue
		}
		ch := pass.Ops[i].ChannelID()
		j := 0
		for j < len(p.hops) && p.hops[j].ch != ch {
			j++
		}
		if j == len(p.hops) {
			p.hops = append(p.hops, channelHops{ch: ch})
		}
		p.hops[j].n++
	}
	return p, nil
}

// plan is a compile's size-independent work over one fabric: the cost
// model's terms and the usable trees of the packed forest with their chunk
// passes. It depends only on the graph (its health included), the
// participants and the Options, so a cached compile memoizes it through
// the schedule cache (collective.Cache.Memo) and every compile over the
// fabric shares it; nothing writes it once it is built.
type plan struct {
	fabric costmodel.Params        // the cost model's terms for the graph, no size
	trees  []collective.RoutedTree // the usable trees of the forest
	passes []*chunkPass            // per usable tree
}

// newPlan lays out the chunk pass of every tree of f. A tree that cannot
// be laid out ends the usable forest: every prefix holding it is
// uncompilable.
func newPlan(g *topology.Graph, nodes []topology.NodeID, f *Forest) *plan {
	p := &plan{fabric: fabricParams(g, len(nodes))}
	for _, t := range f.Trees {
		pass, err := newChunkPass(t, nodes)
		if err != nil {
			break
		}
		p.trees = append(p.trees, t.RoutedTree)
		p.passes = append(p.passes, pass)
	}
	return p
}

// emitter compiles plan variants at one message size. It holds the
// compile's own scratch over its shared plan.
type emitter struct {
	*plan
	g     *topology.Graph
	nodes []topology.NodeID
	bytes int64
	// small, big and finish are bound's per-op scratch, per tree: the op's
	// duration at its tree's two chunk sizes, and its finish time in the
	// latest chunk to ride the tree. loads is its per-channel scratch.
	small, big, finish [][]des.Time
	loads              []des.Time
	// cache serves emit's same-shape headers under cfg, the compile's
	// cache configuration; nil assembles every variant.
	cache *collective.Cache
	cfg   collective.Config
}

// newEmitter compiles at bytes over the trees of f, laid out by newPlan.
func newEmitter(g *topology.Graph, nodes []topology.NodeID, bytes int64, f *Forest) *emitter {
	return newPlan(g, nodes, f).emitter(g, nodes, bytes)
}

// emitter returns a compile at bytes over p, with its own scratch.
func (p *plan) emitter(g *topology.Graph, nodes []topology.NodeID, bytes int64) *emitter {
	e := &emitter{plan: p, g: g, nodes: nodes, bytes: bytes, loads: make([]des.Time, g.NumChannels())}
	ops := 0
	for _, pass := range p.passes {
		ops += len(pass.pass.Ops)
	}
	scratch := make([]des.Time, 3*ops)
	cols := make([][]des.Time, 3*len(p.passes))
	e.small, e.big, e.finish = cols[:len(p.passes)], cols[len(p.passes):2*len(p.passes)], cols[2*len(p.passes):]
	for ti, pass := range p.passes {
		n := len(pass.pass.Ops)
		e.small[ti], e.big[ti], e.finish[ti] = scratch[:n:n], scratch[n:2*n:2*n], scratch[2*n:3*n:3*n]
		scratch = scratch[3*n:]
	}
	return e
}

// emit compiles the variant running k chunks round-robin over the first t
// trees (chunk c rides tree c mod t, so stream identity is tree identity)
// into a verified schedule. Each chunk is sized by its tree's bottleneck
// bandwidth (chunk.SplitRates), so every tree is fed at its own rate; trees
// of equal rate get chunk.Split's sizes. The op graph does not depend on
// the sizes, so when the cache holds a verified one of this shape the
// schedule is a header over it with the new partition; otherwise it is
// laid out and verified through collective.AssembleForest.
func (e *emitter) emit(t, k int) (*collective.Schedule, error) {
	if k < t {
		return nil, fmt.Errorf("synth: %d chunks cannot feed %d trees", k, t)
	}
	if int64(k) > e.bytes {
		return nil, fmt.Errorf("synth: %d chunks for %d bytes", k, e.bytes)
	}
	var buf [DefaultMaxTrees]float64
	part := chunk.SplitRates(e.bytes, k, e.rates(buf[:0], t))
	if e.cache != nil {
		if s := e.cache.Header(e.cfg, t, part); s != nil {
			return s, nil
		}
	}
	return assembleForest(e.g, e.nodes, part, e.trees[:t])
}

// rates appends the rates of the first t trees to buf, which the callers
// keep on the stack.
func (e *emitter) rates(buf []float64, t int) []float64 {
	for _, p := range e.passes[:t] {
		buf = append(buf, p.rate)
	}
	return buf
}

// assembleForest lays out and verifies an emitted variant. It is
// collective.AssembleForest; tests replace it to plant a verification
// failure.
var assembleForest = collective.AssembleForest

// bound returns the two terms of the (t, k) variant's makespan lower bound
// without emitting it: the dependency critical path and the busiest
// channel's serialized load, exactly as schedcheck.CriticalPath and
// schedcheck.ChannelLoads compute them on the variant emit returns.
// schedcheck.MakespanBound is the larger of the two.
//
// Every dep points to an earlier op, so id order is a topological order and
// the critical path is one forward sweep over the chunks. Chunk c's ops
// depend on its own earlier ops and on the same hop of chunk c-t, the
// previous chunk on its tree, so one finish-time array per tree, rewritten
// in place, holds every value the sweep reads. chunk.Streams gives the
// size of a tree's chunks under chunk.SplitRates, the tree's first Big
// chunks one byte more, so each op has two possible durations per tree, and
// a channel's load is,
// per tree, its hop count in the pass times the summed transfer times of
// the chunks riding that tree.
func (e *emitter) bound(t, k int) (path, load des.Time) {
	var rbuf [DefaultMaxTrees]float64
	var sbuf [DefaultMaxTrees]chunk.Stream
	streams := chunk.Streams(sbuf[:0], e.bytes, k, e.rates(rbuf[:0], t))
	passes := e.passes[:t]
	for ti, p := range passes {
		size := streams[ti].Size
		small, big := e.small[ti], e.big[ti]
		clear(e.finish[ti])
		for j := range p.pass.Ops {
			if op := &p.pass.Ops[j]; !op.Marker() {
				ch := e.g.Channel(op.ChannelID())
				small[j], big[j] = ch.TransferTime(size), ch.TransferTime(size+1)
			}
		}
	}
	for c := 0; c < k; c++ {
		ti := c % t
		p, finish := passes[ti], e.finish[ti]
		dur := e.small[ti]
		if c/t < streams[ti].Big {
			dur = e.big[ti]
		}
		for j := range p.pass.Ops {
			var start des.Time
			if !p.pass.Ops[j].Marker() {
				start = finish[j] // the same hop of chunk c-t; zero for c < t
			}
			for _, d := range p.pass.Deps(j) {
				start = max(start, finish[d])
			}
			finish[j] = start + dur[j]
			path = max(path, finish[j])
		}
	}
	clear(e.loads)
	for ti, p := range passes {
		n := des.Time((k - ti + t - 1) / t) // chunks riding tree ti
		nBig, size := des.Time(streams[ti].Big), streams[ti].Size
		for _, h := range p.hops {
			ch := e.g.Channel(h.ch)
			e.loads[h.ch] += des.Time(h.n) * ((n-nBig)*ch.TransferTime(size) + nBig*ch.TransferTime(size+1))
			load = max(load, e.loads[h.ch])
		}
	}
	return path, load
}

// passNames renders the stages that compiled the (t, k) variant, under the
// names of the pass pipeline the emitter fuses: lift the primitive onto a
// tree, parallelize it over k chunks and t trees, route detoured edges (one
// count per chunk crossing one), pipeline consecutive chunks of a tree.
func (e *emitter) passNames(t, k int) []string {
	detours := 0
	for c := 0; c < k; c++ {
		detours += e.passes[c%t].detours
	}
	return []string{
		"lift",
		fmt.Sprintf("parallelize(k=%d,trees=%d)", k, t),
		fmt.Sprintf("route(detours=%d)", detours),
		"pipeline",
	}
}
