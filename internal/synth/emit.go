package synth

import (
	"fmt"

	"ccube/internal/chunk"
	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/schedcheck"
	"ccube/internal/topology"
)

// chunkPass is one chunk's trip through one packed tree, in the schedule
// IR: the reduction up the tree, the root-ready marker, and the broadcast
// back down, every tree edge expanded into one op per physical hop of the
// route it claimed. Op ids in Deps and relay slots are relative to the
// chunk's first op; Chunk and Bytes are left for the emitter to fill.
type chunkPass struct {
	ops     []schedcheck.Op
	deps    int // dependencies of one chunk, before pipelining
	detours int // tree edges routed through a relay GPU
	// hops counts the pass's ops per channel: one chunk's load on each
	// channel the tree rides, in units of that chunk's transfer time.
	hops []channelHops
	// small, big and finish are bound's per-op scratch: the op's duration
	// at the variant's two chunk sizes, and its finish time in the latest
	// chunk to ride this tree.
	small, big, finish []des.Time
}

// channelHops is how many of one chunk pass's ops ride a channel.
type channelHops struct {
	ch topology.ChannelID
	n  int64
}

// newChunkPass lays out chunk traffic over tree t:
//   - up edges in reverse attachment order (children before parents), each
//     depending on the last hop of every child's up edge;
//   - the root-ready marker, joining the root's children and recording the
//     chunk final at the root;
//   - down edges in attachment order (parents before children), each
//     chained off the marker or its parent's down edge, so each chunk's
//     broadcast starts the moment that chunk is reduced.
//
// A multi-hop (detour) route is relay-spliced, the shape §IV-A repairs
// use: intermediate hops forward into their own relay slot, and the next
// hop reads that slot and depends on the hop before it. Reduction and
// finality happen only on a route's last hop.
func newChunkPass(t *Tree, nodes []topology.NodeID) (*chunkPass, error) {
	n := len(nodes)
	hops := 1 // the marker
	for v := 0; v < n; v++ {
		if v != t.Root {
			hops += t.Up[v].Hops() + t.Down[v].Hops()
		}
	}
	p := &chunkPass{ops: make([]schedcheck.Op, 0, hops), detours: t.Detours}
	// Each hop of a tree edge adds one dep: an up route's last hop is joined
	// once (by the parent's up edge or the marker), a later hop depends on
	// the hop before it, and a down route's first hop on one op.
	arena := make([]int, 0, hops-1)
	deps := func(ids ...int) []int {
		start := len(arena)
		arena = append(arena, ids...)
		return arena[start:len(arena):len(arena)]
	}
	last := make([]int, n) // participant -> last hop of its latest edge
	children := func(v int) []int {
		start := len(arena)
		for _, w := range t.Children[v] {
			arena = append(arena, last[w])
		}
		return arena[start:len(arena):len(arena)]
	}
	route := func(rt topology.Route, from, to int, accumulate bool, final topology.NodeID, first []int) error {
		if rt.Hops() == 0 {
			return fmt.Errorf("synth: no route for tree edge %d->%d", from, to)
		}
		for h, ch := range rt.Channels {
			id := len(p.ops)
			op := schedcheck.Op{Channel: ch, Src: schedcheck.NodeBuf(nodes[from]), Dst: schedcheck.NodeBuf(nodes[to]),
				Accumulate: accumulate, Final: final, Deps: first}
			if h > 0 {
				op.Src, op.Deps = schedcheck.RelayBuf(id-1), deps(id-1)
			}
			if h < rt.Hops()-1 {
				op.Dst, op.Accumulate, op.Final = schedcheck.RelayBuf(id), false, -1
			}
			p.ops = append(p.ops, op)
		}
		return nil
	}

	for i := len(t.Order) - 1; i >= 0; i-- {
		v := t.Order[i]
		if v == t.Root {
			continue
		}
		if err := route(t.Up[v], v, t.Parent[v], true, -1, children(v)); err != nil {
			return nil, err
		}
		last[v] = len(p.ops) - 1
	}
	p.ops = append(p.ops, schedcheck.Op{Channel: -1, Src: schedcheck.NoBuf(), Dst: schedcheck.NoBuf(),
		Final: nodes[t.Root], Deps: children(t.Root)})
	last[t.Root] = len(p.ops) - 1
	for _, v := range t.Order {
		for _, w := range t.Children[v] {
			if err := route(t.Down[w], v, w, false, nodes[w], deps(last[v])); err != nil {
				return nil, err
			}
			last[w] = len(p.ops) - 1
		}
	}
	p.deps = len(arena)
	for i := range p.ops {
		if p.ops[i].Marker() {
			continue
		}
		j := 0
		for j < len(p.hops) && p.hops[j].ch != p.ops[i].Channel {
			j++
		}
		if j == len(p.hops) {
			p.hops = append(p.hops, channelHops{ch: p.ops[i].Channel})
		}
		p.hops[j].n++
	}
	p.small = make([]des.Time, len(p.ops))
	p.big = make([]des.Time, len(p.ops))
	p.finish = make([]des.Time, len(p.ops))
	return p, nil
}

// emitter compiles plan variants over one packed forest. Its scratch deps
// buffer is reused across variants: Assemble moves each variant's deps into
// the schedule's own exact-size arena.
type emitter struct {
	g      *topology.Graph
	nodes  []topology.NodeID
	bytes  int64
	passes []*chunkPass // per usable tree of the forest
	deps   []int
	loads  []des.Time // bound's per-channel scratch
}

// newEmitter lays out the chunk pass of every tree of f. A tree that cannot
// be laid out ends the usable forest: every prefix holding it is
// uncompilable.
func newEmitter(g *topology.Graph, nodes []topology.NodeID, bytes int64, f *Forest) *emitter {
	e := &emitter{g: g, nodes: nodes, bytes: bytes, loads: make([]des.Time, g.NumChannels())}
	for _, t := range f.Trees {
		p, err := newChunkPass(t, nodes)
		if err != nil {
			break
		}
		e.passes = append(e.passes, p)
	}
	return e
}

// emit compiles the variant running k chunks round-robin over the first t
// trees (chunk c rides tree c mod t, so stream identity is tree identity)
// straight into schedule ops, then assembles and verifies it. Every hop of
// chunk c also depends on the same hop of chunk c-t: the persistent channel
// kernel processes a tree's chunks strictly in order, which turns the
// per-chunk DAG into the in-order pipeline the Streams claim asserts.
func (e *emitter) emit(t, k int) (*collective.Schedule, error) {
	if k < t {
		return nil, fmt.Errorf("synth: %d chunks cannot feed %d trees", k, t)
	}
	if int64(k) > e.bytes {
		return nil, fmt.Errorf("synth: %d chunks for %d bytes", k, e.bytes)
	}
	part := chunk.Split(e.bytes, k)
	passes := e.passes[:t]
	nOps, nDeps := 0, 0
	for c := 0; c < k; c++ {
		p := passes[c%t]
		nOps += len(p.ops)
		nDeps += p.deps
		if c >= t {
			nDeps += len(p.ops) - 1
		}
	}
	ops := make([]schedcheck.Op, nOps)
	if cap(e.deps) < nDeps {
		e.deps = make([]int, nDeps)
	}
	arena := e.deps[:0]
	prev := make([]int, t) // per tree: first op id of its previous chunk
	base := 0
	for c := 0; c < k; c++ {
		ti := c % t
		for j := range passes[ti].ops {
			op := &ops[base+j]
			*op = passes[ti].ops[j]
			op.ID, op.Chunk = base+j, c
			start := len(arena)
			for _, d := range op.Deps {
				arena = append(arena, base+d)
			}
			if !op.Marker() {
				op.Bytes = part.Sizes[c]
				if c >= t {
					arena = append(arena, prev[ti]+j)
				}
				if op.Src.Relay >= 0 {
					op.Src.Relay += base
				}
				if op.Dst.Relay >= 0 {
					op.Dst.Relay += base
				}
			}
			op.Deps = arena[start:len(arena):len(arena)]
		}
		prev[ti] = base
		base += len(passes[ti].ops)
	}
	return assemble(collective.AssembleSpec{
		Graph:     e.g,
		Nodes:     e.nodes,
		Partition: part,
		InOrder:   true,
		Streams:   t,
		Contract:  collective.ContractAllReduce,
		Ops:       ops,
	})
}

// assemble adopts an emitted variant as a verified schedule. It is
// collective.Assemble; tests replace it to plant a verification failure.
var assemble = collective.Assemble

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
// in place, holds every value the sweep reads. chunk.Split gives chunks
// c < bytes%k one byte more than the rest, so each op has two possible
// durations, and a channel's load is, per tree, its hop count in the pass
// times the summed transfer times of the chunks riding that tree.
func (e *emitter) bound(t, k int) (path, load des.Time) {
	small := e.bytes / int64(k)
	extra := int(e.bytes % int64(k))
	passes := e.passes[:t]
	for _, p := range passes {
		for j := range p.ops {
			p.finish[j] = 0
			if op := &p.ops[j]; !op.Marker() {
				ch := e.g.Channel(op.Channel)
				p.small[j], p.big[j] = ch.TransferTime(small), ch.TransferTime(small+1)
			}
		}
	}
	for c := 0; c < k; c++ {
		p := passes[c%t]
		dur := p.small
		if c < extra {
			dur = p.big
		}
		for j := range p.ops {
			op := &p.ops[j]
			var start des.Time
			if !op.Marker() {
				start = p.finish[j] // the same hop of chunk c-t; zero for c < t
			}
			for _, d := range op.Deps {
				start = max(start, p.finish[d])
			}
			p.finish[j] = start + dur[j]
			path = max(path, p.finish[j])
		}
	}
	clear(e.loads)
	for ti, p := range passes {
		n := des.Time((k - ti + t - 1) / t)        // chunks riding tree ti
		nBig := des.Time((extra - ti + t - 1) / t) // of which one byte larger
		for _, h := range p.hops {
			ch := e.g.Channel(h.ch)
			e.loads[h.ch] += des.Time(h.n) * ((n-nBig)*ch.TransferTime(small) + nBig*ch.TransferTime(small+1))
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
