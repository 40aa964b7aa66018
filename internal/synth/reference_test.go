package synth

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"slices"
	"sort"

	"ccube/internal/chunk"
	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/schedcheck"
	"ccube/internal/topology"
)

// This file is the reference compiler the emitter replaced, kept as the
// oracle of the differential tests: a logical IR carrying each op's tree
// edge and hop, rewritten by four passes
//
//	lift         Allreduce(bytes) → single-chunk logical program on tree 0
//	parallelize  split into K chunks sized by tree rate, round-robin across
//	             the forest's trees
//	route        logical edges → physical hops (relay-spliced detours)
//	pipeline     FIFO deps between consecutive chunks on every hop
//
// then lowered onto an op-spec vocabulary and translated into schedule ops.

type refKind uint8

const (
	refSend refKind = iota
	refReduce
	refMarker
)

// refUnrouted marks a logical op before the route pass.
const refUnrouted topology.ChannelID = -2

// refOp is one reference IR op: its logical identity (Tree, Child, Up, Hop)
// plus its physical assignment once routed.
type refOp struct {
	Kind  refKind
	Chunk int
	Bytes int64

	Tree  int
	Child int
	Up    bool
	Hop   int

	Channel  topology.ChannelID
	Src, Dst int
	SrcRelay int
	DstRelay bool
	FinalAt  int

	Deps  []int
	Label string
}

type refProgram struct {
	Graph     *topology.Graph
	Nodes     []topology.NodeID
	Forest    *Forest
	Partition chunk.Partition
	InOrder   bool
	Streams   int
	Ops       []refOp
	Passes    []string
	Detours   int
}

func refCompile(g *topology.Graph, nodes []topology.NodeID, bytes int64, f *Forest, k int) (*refProgram, error) {
	p, err := refLift(g, nodes, bytes, f)
	if err != nil {
		return nil, err
	}
	if err := refParallelize(p, k); err != nil {
		return nil, err
	}
	if err := refRoute(p); err != nil {
		return nil, err
	}
	refPipeline(p)
	return p, nil
}

func refLift(g *topology.Graph, nodes []topology.NodeID, bytes int64, f *Forest) (*refProgram, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("synth: message size %d", bytes)
	}
	if f == nil || len(f.Trees) == 0 {
		return nil, fmt.Errorf("synth: empty forest")
	}
	p := &refProgram{
		Graph:     g,
		Nodes:     nodes,
		Forest:    f,
		Partition: chunk.Split(bytes, 1),
		InOrder:   true,
		Streams:   1,
		Passes:    []string{"lift"},
	}
	refEmitChunk(p, 0, 0)
	return p, nil
}

func refEmitChunk(p *refProgram, ti, c int) {
	t := p.Forest.Trees[ti]
	bytes := p.Partition.Sizes[c]
	up := make([]int, len(p.Nodes))
	for i := range up {
		up[i] = -1
	}
	for i := len(t.Order) - 1; i >= 0; i-- {
		v := t.Order[i]
		if v == t.Root {
			continue
		}
		var deps []int
		for _, w := range t.Children[v] {
			deps = append(deps, up[w])
		}
		up[v] = len(p.Ops)
		p.Ops = append(p.Ops, refOp{
			Kind: refReduce, Chunk: c, Bytes: bytes,
			Tree: ti, Child: v, Up: true, Hop: -1,
			Channel: refUnrouted, Src: v, Dst: t.Parent[v],
			SrcRelay: -1, FinalAt: -1, Deps: deps,
			Label: fmt.Sprintf("s%d:up:%d->%d:c%d", ti, v, t.Parent[v], c),
		})
	}
	var rootDeps []int
	for _, w := range t.Children[t.Root] {
		rootDeps = append(rootDeps, up[w])
	}
	ready := len(p.Ops)
	p.Ops = append(p.Ops, refOp{
		Kind: refMarker, Chunk: c,
		Tree: ti, Child: -1, Hop: -1,
		Channel: -1, Src: -1, Dst: -1, SrcRelay: -1,
		FinalAt: t.Root, Deps: rootDeps,
		Label: fmt.Sprintf("s%d:rootready:c%d", ti, c),
	})
	down := make([]int, len(p.Nodes))
	for i := range down {
		down[i] = -1
	}
	for _, v := range t.Order {
		for _, w := range t.Children[v] {
			var deps []int
			if v == t.Root {
				deps = []int{ready}
			} else {
				deps = []int{down[v]}
			}
			down[w] = len(p.Ops)
			p.Ops = append(p.Ops, refOp{
				Kind: refSend, Chunk: c, Bytes: bytes,
				Tree: ti, Child: w, Up: false, Hop: -1,
				Channel: refUnrouted, Src: v, Dst: w,
				SrcRelay: -1, FinalAt: w, Deps: deps,
				Label: fmt.Sprintf("s%d:down:%d->%d:c%d", ti, v, w, c),
			})
		}
	}
}

func refParallelize(p *refProgram, k int) error {
	trees := len(p.Forest.Trees)
	if k < trees {
		return fmt.Errorf("synth: %d chunks cannot feed %d trees", k, trees)
	}
	if int64(k) > p.Partition.TotalBytes {
		return fmt.Errorf("synth: %d chunks for %d bytes", k, p.Partition.TotalBytes)
	}
	rates := make([]float64, trees)
	for i, t := range p.Forest.Trees {
		rates[i] = t.Bottleneck
	}
	p.Partition = refSplitRates(p.Partition.TotalBytes, k, rates)
	p.Streams = trees
	p.Ops = p.Ops[:0]
	for c := 0; c < k; c++ {
		refEmitChunk(p, c%trees, c)
	}
	p.Passes = append(p.Passes, fmt.Sprintf("parallelize(k=%d,trees=%d)", k, trees))
	return nil
}

// refSplitRates is the rate-weighted partition worked chunk by chunk in
// exact rational arithmetic, independent of chunk.SplitRates: every chunk
// gets one byte, the rest is shared in proportion to the rate of the
// chunk's tree (c mod len(rates)), quantized to 2^-20 of the fastest, and
// the bytes left by rounding down go one each to the chunks of largest
// remainder, the lower index first.
func refSplitRates(total int64, k int, rates []float64) chunk.Partition {
	fastest := slices.Max(rates)
	w := make([]*big.Int, k)
	sum := new(big.Int)
	for c := range w {
		w[c] = big.NewInt(max(1, int64(math.Round(rates[c%len(rates)]/fastest*(1<<20)))))
		sum.Add(sum, w[c])
	}
	spare := big.NewInt(total - int64(k))
	sizes := make([]int64, k)
	rems := make([]*big.Int, k)
	left := total - int64(k)
	for c := range w {
		q, r := new(big.Int).QuoRem(new(big.Int).Mul(spare, w[c]), sum, new(big.Int))
		sizes[c], rems[c] = 1+q.Int64(), r
		left -= q.Int64()
	}
	order := make([]int, k)
	for c := range order {
		order[c] = c
	}
	sort.SliceStable(order, func(a, b int) bool { return rems[order[a]].Cmp(rems[order[b]]) > 0 })
	for _, c := range order[:left] {
		sizes[c]++
	}
	p := chunk.Partition{TotalBytes: total, Sizes: sizes, Offsets: make([]int64, k)}
	for c := 1; c < k; c++ {
		p.Offsets[c] = p.Offsets[c-1] + sizes[c-1]
	}
	return p
}

func refRoute(p *refProgram) error {
	old := p.Ops
	p.Ops = make([]refOp, 0, len(old))
	last := make([]int, len(old))
	detours := 0
	for oi, op := range old {
		remapped := refRemapDeps(op.Deps, last)
		if op.Kind == refMarker {
			op.Deps = remapped
			last[oi] = len(p.Ops)
			p.Ops = append(p.Ops, op)
			continue
		}
		if op.Channel != refUnrouted {
			return fmt.Errorf("synth: route: op %q already routed", op.Label)
		}
		t := p.Forest.Trees[op.Tree]
		rt := t.Up[op.Child]
		if !op.Up {
			rt = t.Down[op.Child]
		}
		hops := rt.Hops()
		if hops == 0 {
			return fmt.Errorf("synth: route: no route for op %q", op.Label)
		}
		if hops > 1 {
			detours++
		}
		prev := -1
		for h, ch := range rt.Channels {
			hop := op
			hop.Channel = ch
			hop.Hop = h
			hop.Label = fmt.Sprintf("%s:h%d", op.Label, h)
			if h == 0 {
				hop.Deps = remapped
			} else {
				hop.SrcRelay = prev
				hop.Deps = []int{prev}
			}
			if h < hops-1 {
				hop.Kind = refSend
				hop.DstRelay = true
				hop.FinalAt = -1
			}
			prev = len(p.Ops)
			p.Ops = append(p.Ops, hop)
		}
		last[oi] = prev
	}
	p.Detours = detours
	p.Passes = append(p.Passes, fmt.Sprintf("route(detours=%d)", detours))
	return nil
}

func refRemapDeps(deps []int, last []int) []int {
	if len(deps) == 0 {
		return nil
	}
	out := make([]int, len(deps))
	for i, d := range deps {
		out[i] = last[d]
	}
	return out
}

func refPipeline(p *refProgram) {
	type hopKey struct {
		tree  int
		child int
		up    bool
		hop   int
		chunk int
	}
	at := make(map[hopKey]int, len(p.Ops))
	trees := len(p.Forest.Trees)
	for i := range p.Ops {
		op := &p.Ops[i]
		if op.Kind == refMarker {
			continue
		}
		k := hopKey{op.Tree, op.Child, op.Up, op.Hop, op.Chunk}
		at[k] = i
		if prevChunk := op.Chunk - trees; prevChunk >= 0 {
			k.chunk = prevChunk
			if j, ok := at[k]; ok {
				op.Deps = append(op.Deps, j)
			}
		}
	}
	p.Passes = append(p.Passes, "pipeline")
}

// refOpSpec is the op-spec vocabulary the reference lowered onto.
type refOpSpec struct {
	Channel      topology.ChannelID
	Chunk        int
	SrcNode      topology.NodeID
	FromRelay    bool
	SrcRelay     int
	DstNode      topology.NodeID
	DstRelaySelf bool
	Accumulate   bool
	NoAlpha      bool
	HasFinal     bool
	Final        topology.NodeID
	Deps         []int
}

func refLower(p *refProgram) ([]refOpSpec, error) {
	specs := make([]refOpSpec, 0, len(p.Ops))
	for i, op := range p.Ops {
		o := refOpSpec{Chunk: op.Chunk, Deps: op.Deps, Channel: op.Channel}
		switch op.Kind {
		case refMarker:
			o.Channel = -1
			if op.FinalAt >= 0 {
				o.HasFinal, o.Final = true, p.Nodes[op.FinalAt]
			}
		case refSend, refReduce:
			if op.Channel < 0 {
				return nil, fmt.Errorf("synth: lower: op %d (%s) is unrouted", i, op.Label)
			}
			o.Accumulate = op.Kind == refReduce
			if op.SrcRelay >= 0 {
				o.FromRelay, o.SrcRelay = true, op.SrcRelay
			} else {
				o.SrcNode = p.Nodes[op.Src]
			}
			if op.DstRelay {
				o.DstRelaySelf = true
			} else {
				o.DstNode = p.Nodes[op.Dst]
			}
			if op.FinalAt >= 0 {
				o.HasFinal, o.Final = true, p.Nodes[op.FinalAt]
			}
		}
		specs = append(specs, o)
	}
	return specs, nil
}

// refOps translates op specs into schedule ops and their dependencies the
// way assembly did.
func refOps(specs []refOpSpec) ([]schedcheck.Op, [][]int) {
	ops := make([]schedcheck.Op, len(specs))
	deps := make([][]int, len(specs))
	for i, op := range specs {
		o := schedcheck.Op{Chunk: int32(op.Chunk), Channel: -1, Src: schedcheck.NoBuf(), Dst: schedcheck.NoBuf(), Final: -1}
		deps[i] = op.Deps
		if op.HasFinal {
			o.Final = int32(op.Final)
		}
		if op.Channel >= 0 {
			o.Channel, o.Accumulate, o.NoAlpha = int32(op.Channel), op.Accumulate, op.NoAlpha
			o.Src = schedcheck.NodeBuf(op.SrcNode)
			if op.FromRelay {
				o.Src = schedcheck.RelayBuf(op.SrcRelay)
			}
			o.Dst = schedcheck.NodeBuf(op.DstNode)
			if op.DstRelaySelf {
				o.Dst = schedcheck.RelayBuf(i)
			}
		}
		ops[i] = o
	}
	return ops, deps
}

// refSchedule compiles one variant with the reference passes and assembles
// it.
func refSchedule(g *topology.Graph, nodes []topology.NodeID, bytes int64, f *Forest, k int) (*collective.Schedule, *refProgram, error) {
	p, err := refCompile(g, nodes, bytes, f, k)
	if err != nil {
		return nil, nil, err
	}
	specs, err := refLower(p)
	if err != nil {
		return nil, nil, err
	}
	ops, deps := refOps(specs)
	s, err := collective.Assemble(collective.AssembleSpec{
		Graph:     p.Graph,
		Nodes:     p.Nodes,
		Partition: p.Partition,
		InOrder:   p.InOrder,
		Streams:   p.Streams,
		Contract:  collective.ContractAllReduce,
		Ops:       ops,
		Deps:      deps,
	})
	return s, p, err
}

// refForestPrefix is the first t trees of f, as the reference search
// compiled them.
func refForestPrefix(f *Forest, t int) *Forest {
	sub := &Forest{Trees: f.Trees[:t]}
	for _, d := range sub.Trees {
		sub.Detours += d.Detours
	}
	return sub
}

// refCompileBest is the reference plan search: every variant kept, ranked
// by a stable sort on the bound, the top executeFinalists executed.
func refCompileBest(ctx context.Context, g *topology.Graph, nodes []topology.NodeID, bytes int64, opts Options) (*collective.Schedule, Report, error) {
	opts = opts.normalized()
	forest, err := PackForest(g, nodes, opts.MaxTrees, opts.Seed, !opts.NoDetour)
	if err != nil {
		return nil, Report{}, err
	}
	type refPlan struct {
		trees, chunks int
		prog          *refProgram
		sched         *collective.Schedule
		bound         des.Time
	}
	var plans []refPlan
	for t := 1; t <= len(forest.Trees); t++ {
		sub := refForestPrefix(forest, t)
		for _, k := range chunkCandidates(fabricParams(g, len(nodes)), bytes, t, opts.MaxChunks) {
			sched, prog, err := refSchedule(g, nodes, bytes, sub, k)
			if err != nil {
				continue
			}
			bound, err := sched.MakespanBound()
			if err != nil {
				continue
			}
			plans = append(plans, refPlan{trees: t, chunks: k, prog: prog, sched: sched, bound: bound})
		}
	}
	if len(plans) == 0 {
		return nil, Report{}, fmt.Errorf("synth: no compilable plan")
	}
	sort.SliceStable(plans, func(a, b int) bool { return plans[a].bound < plans[b].bound })
	finalists := plans
	if len(finalists) > executeFinalists {
		finalists = finalists[:executeFinalists]
	}
	best := -1
	var bestTotal des.Time
	for i := range finalists {
		res, err := finalists[i].sched.ExecuteCtx(ctx)
		if err != nil {
			continue
		}
		if best < 0 || res.Total < bestTotal {
			best, bestTotal = i, res.Total
		}
	}
	if best < 0 {
		return nil, Report{}, fmt.Errorf("synth: no plan executed successfully")
	}
	w := finalists[best]
	return w.sched, Report{
		Trees:     w.trees,
		Chunks:    w.chunks,
		Detours:   w.prog.Detours,
		Passes:    w.prog.Passes,
		Variants:  len(plans),
		partition: w.prog.Partition,
	}, nil
}
