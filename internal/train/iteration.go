package train

import (
	"fmt"
	"slices"
	"sort"

	"ccube/internal/chunk"
	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/dnn"
	"ccube/internal/topology"
)

// appender builds training iterations into one des.Graph: RunCtx appends
// one, RunPipeline k back to back, and RunBackwardOverlapCtx one whose
// collectives are DDP's per-bucket blocks. Every task's dependencies pass
// through one reused scratch slice, and the graph stores no task names:
// iters records where each iteration's tasks sit, and Label derives a
// task's name from its id, so the appender is its graph's des.Namer.
//
// One iteration's tasks, in id order: each GPU's backward chain (layers
// L-1..0); per collective a launch join (the one-shot AllReduce's
// "bwd-done", or a DDP bucket's launch) followed by its block; then per
// GPU a "comm-done" join on its chunks and its forward chain (layers
// 0..L-1). Under DDP each GPU's join sits right before its forward chain;
// otherwise all joins come first.
type appender struct {
	nodes []topology.NodeID
	ddp   bool

	// scheds[s] launches launchCost after every GPU finished the backward
	// pass of layer launchAfter[s]: the one-shot AllReduce right after
	// layer 0, or one ring per DDP bucket, BucketInvocationOverhead after
	// its first layer.
	scheds      []*collective.Schedule
	launchAfter []int
	launchCost  des.Time

	fwd, bwd           []des.Time // one GPU's per-layer compute times
	fwdScale, bwdScale []float64  // per GPU: straggler, fault, detour tax, DDP contention
	computeTime        des.Time
	streams, chres     []*des.Resource

	numTrees  int   // trees the chunks are dealt round-robin to
	chained   bool  // forward layers dequeue chunks instead of waiting for all
	lastChunk []int // forward layer l dequeues once chunks 0..lastChunk[l] arrived

	g      *des.Graph
	deps   []int
	iters  []iteration
	prefix bool // name tasks "it<k>:..." (RunPipeline)
}

// iteration records where one appended iteration's tasks start.
type iteration struct {
	bwd    int // GPU i's backward task for layer l is bwd + i*L + L-1-l
	stages []stage
	tail   int // first join; see appender.commDone and appender.fwdTask
}

// stage is one collective of an iteration: its launch join and its block.
type stage struct {
	launch int
	block  *collective.Block
}

// newAppender resolves cfg into an appender over an empty graph. It
// validates the configuration, builds the collectives (the mode's
// AllReduce, or under ddp one verified ring per bucket), applies static
// faults and repairs the AllReduce around dead links, and derives each
// GPU's compute scale from ComputeScale, GPU faults, the detour tax
// (C-Cube's detour kernels slow forward) and, under ddp,
// BackwardContention. Call the returned revert once the run is over: it
// restores the topology's health.
func (cfg *Config) newAppender(ddp bool) (*appender, func(), error) {
	noop := func() {}
	if err := cfg.validate(); err != nil {
		return nil, noop, err
	}
	a := &appender{nodes: cfg.Nodes, ddp: ddp, numTrees: 1, g: des.NewGraph()}
	a.g.SetNamer(a)
	if a.nodes == nil {
		a.nodes = cfg.Graph.GPUs()
	}
	if cfg.ComputeScale != nil && len(cfg.ComputeScale) != len(a.nodes) {
		return nil, noop, fmt.Errorf("train: %d compute scales for %d GPUs",
			len(cfg.ComputeScale), len(a.nodes))
	}
	if ddp {
		if !cfg.Faults.Empty() {
			return nil, noop, fmt.Errorf("train: DDP does not take a fault plan: its bucket schedules are not repaired")
		}
		for bi, bk := range makeBuckets(cfg.Model.LayerBytes(), DefaultBucketBytes) {
			// BuildCached: every iteration of a model asks for the same
			// bucket schedules, so each is built and verified once, then
			// shared.
			sched, err := collective.BuildCached(collective.Config{
				Graph:               cfg.Graph,
				Algorithm:           collective.AlgRing, // DDP's default backend behavior
				Nodes:               a.nodes,
				Bytes:               bk.bytes,
				AllowSharedChannels: cfg.AllowSharedChannels,
			})
			if err != nil {
				return nil, noop, fmt.Errorf("train: bucket %d: %w", bi, err)
			}
			a.scheds = append(a.scheds, sched)
			a.launchAfter = append(a.launchAfter, bk.firstLayer)
		}
		a.launchCost = BucketInvocationOverhead
	} else {
		alg, err := cfg.Mode.algorithm()
		if err != nil {
			return nil, noop, err
		}
		// The schedule's chunk partition defines the layer-chunk table for
		// chaining, and its detour assignment defines the SM tax.
		sched, err := cfg.buildSchedule(a.nodes)
		if err != nil {
			return nil, noop, err
		}
		a.scheds, a.launchAfter = []*collective.Schedule{sched}, []int{0}
		if cfg.Cluster == nil &&
			(alg == collective.AlgDoubleTree || alg == collective.AlgDoubleTreeOverlap) {
			a.numTrees = 2
		}
	}

	// Fault injection: the schedule above was built for the healthy
	// fabric; apply the static faults and repair the schedule around any
	// dead links before anything executes.
	revert := noop
	if !cfg.Faults.Empty() {
		if err := cfg.Faults.Validate(cfg.Graph); err != nil {
			return nil, noop, err
		}
		revert = cfg.Faults.Apply(cfg.Graph)
		repaired, _, err := collective.RepairSchedule(a.scheds[0], cfg.Graph.DownChannels(), nil)
		if err != nil {
			revert()
			return nil, noop, err
		}
		a.scheds[0] = repaired
	}

	dev := cfg.Device
	if dev.PeakFLOPS == 0 {
		dev = dnn.V100()
	}
	a.fwd = dev.FwdTimes(cfg.Model, cfg.Batch)
	a.bwd = dev.BwdTimes(cfg.Model, cfg.Batch)
	a.computeTime = dev.IterTime(cfg.Model, cfg.Batch)
	a.chres = cfg.Graph.Resources()
	cfg.Faults.ApplyToResources(cfg.Graph, a.chres)

	gpuFactor := cfg.Faults.GPUFactors(cfg.Graph.NumNodes()) // by NodeID; all 1 without faults
	tax := cfg.DetourSMTax
	if tax == 0 {
		tax = DefaultDetourSMTax
	}
	var detour []topology.NodeID
	if !ddp && tax > 0 {
		detour = a.scheds[0].DetourNodes()
	}
	a.streams = make([]*des.Resource, len(a.nodes))
	a.fwdScale = make([]float64, len(a.nodes))
	a.bwdScale = make([]float64, len(a.nodes))
	for i, n := range a.nodes {
		a.streams[i] = des.NewResource("stream:" + cfg.Graph.Node(n).Name)
		scale := 1.0
		if cfg.ComputeScale != nil && cfg.ComputeScale[i] >= 1 {
			scale = cfg.ComputeScale[i]
		}
		scale *= gpuFactor[n]
		a.fwdScale[i], a.bwdScale[i] = scale, scale
		if ddp {
			a.bwdScale[i] = scale * (1 + BackwardContention)
		}
		if slices.Contains(detour, n) {
			a.fwdScale[i] *= 1 / (1 - tax)
		}
	}
	if !ddp {
		a.chained = cfg.Mode.chained() && a.scheds[0].InOrder
		a.lastChunk = chunk.BuildLayerChunkTable(cfg.Model.LayerBytes(), a.scheds[0].Partition).LastChunk
	}
	return a, revert, nil
}

// validateSerialized checks that no channel ran two transfers at once.
func (a *appender) validateSerialized() error {
	for _, r := range a.chres {
		if err := r.ValidateSerialized(); err != nil {
			return err
		}
	}
	return nil
}

// after returns the scratch dependency list holding p, or nothing when
// p < 0.
func (a *appender) after(p int) []int {
	a.deps = a.deps[:0]
	if p >= 0 {
		a.deps = append(a.deps, p)
	}
	return a.deps
}

// bwdTask returns GPU i's backward task for layer l in it.
func (a *appender) bwdTask(it *iteration, i, l int) int {
	return it.bwd + i*len(a.bwd) + len(a.bwd) - 1 - l
}

// commDone returns GPU i's join on every chunk of it's collectives.
func (a *appender) commDone(it *iteration, i int) int {
	if a.ddp {
		return it.tail + i*(len(a.fwd)+1)
	}
	return it.tail + i
}

// fwdTask returns GPU i's forward task for layer l in it.
func (a *appender) fwdTask(it *iteration, i, l int) int {
	if a.ddp {
		return a.commDone(it, i) + 1 + l
	}
	return it.tail + len(a.nodes) + i*len(a.fwd) + l
}

// appendIteration appends one iteration and records it in a.iters. Its
// backward pass starts on each GPU once the previous iteration's forward
// pass ended there (at time zero for the first).
func (a *appender) appendIteration() error {
	g, n, L := a.g, len(a.nodes), len(a.bwd)
	a.iters = append(a.iters, iteration{bwd: g.NumTasks(), tail: -1})
	k := len(a.iters) - 1
	it := &a.iters[k]

	for i := range n {
		prev := -1
		if k > 0 {
			prev = a.fwdTask(&a.iters[k-1], i, L-1)
		}
		for l := L - 1; l >= 0; l-- {
			prev = g.Add(a.streams[i], des.Time(float64(a.bwd[l])*a.bwdScale[i]), a.after(prev)...)
		}
	}

	// Each collective launches once every GPU has produced its gradients.
	for s, sched := range a.scheds {
		a.deps = a.deps[:0]
		for i := range n {
			a.deps = append(a.deps, a.bwdTask(it, i, a.launchAfter[s]))
		}
		it.stages = append(it.stages, stage{launch: g.NumTasks()})
		g.Add(nil, a.launchCost, a.deps...)
		block, err := sched.Instantiate(g, a.chres, it.stages[s].launch)
		if err != nil {
			return err
		}
		it.stages[s].block = block
	}

	it.tail = g.NumTasks()
	if !a.ddp {
		for i := range n {
			a.addCommDone(it, i)
		}
	}
	for i := range n {
		if a.ddp {
			a.addCommDone(it, i)
		}
		prev := -1
		for l := range L {
			deps := a.after(prev)
			if a.chained {
				// Gradient queuing: layer l dequeues once the chunks it
				// needs have arrived.
				deps = a.chunkDeps(deps, it, 0, i, a.lastChunk[l])
			} else {
				deps = append(deps, a.commDone(it, i))
			}
			a.deps = deps
			prev = g.Add(a.streams[i], des.Time(float64(a.fwd[l])*a.fwdScale[i]), deps...)
		}
	}
	return nil
}

// addCommDone appends GPU i's join on every chunk of it's collectives.
func (a *appender) addCommDone(it *iteration, i int) {
	deps := a.deps[:0]
	for s := range it.stages {
		deps = a.chunkDeps(deps, it, s, i, len(it.stages[s].block.Ready[i])-1)
	}
	a.deps = deps
	a.g.Add(nil, 0, deps...)
}

// chunkDeps appends the tasks whose End makes chunks 0..last of the
// iteration's collective s available at GPU i. With in-order arrival per
// tree, each tree's latest chunk in that prefix implies the rest;
// otherwise (ring) every chunk is joined.
func (a *appender) chunkDeps(deps []int, it *iteration, s, i, last int) []int {
	ready := it.stages[s].block.Ready[i]
	if !a.scheds[s].InOrder {
		return append(deps, ready[:last+1]...)
	}
	for t := range a.numTrees {
		if c := lastTreeChunkAtMost(last, len(ready), a.numTrees, t); c >= 0 {
			deps = append(deps, ready[c])
		}
	}
	return deps
}

// Label derives task id's name from its position: "bwd:g3:l7",
// "bwd-done", "bucket4:launch", "comm-done:g2", "fwd:g0:l1" (prefixed
// "it2:" in a pipeline), and a block task's transfer kind.
func (a *appender) Label(id int) string {
	k := sort.Search(len(a.iters), func(k int) bool { return a.iters[k].bwd > id }) - 1
	it := &a.iters[k]
	n, L := len(a.nodes), len(a.bwd)
	var name string
	switch off := id - it.bwd; {
	case off < n*L:
		name = fmt.Sprintf("bwd:g%d:l%d", off/L, L-1-off%L)
	case it.tail >= 0 && id >= it.tail:
		i, l := id-it.tail, -1
		if a.ddp {
			i, l = i/(L+1), i%(L+1)-1
		} else if i >= n {
			i, l = (i-n)/L, (i-n)%L
		}
		if l < 0 {
			name = fmt.Sprintf("comm-done:g%d", i)
		} else {
			name = fmt.Sprintf("fwd:g%d:l%d", i, l)
		}
	default:
		s := sort.Search(len(it.stages), func(s int) bool { return it.stages[s].launch > id }) - 1
		switch {
		case id > it.stages[s].launch:
			return it.stages[s].block.Label(id) // transfer kinds carry no prefix
		case a.ddp:
			name = fmt.Sprintf("bucket%d:launch", s)
		default:
			name = "bwd-done"
		}
	}
	if a.prefix {
		return fmt.Sprintf("it%d:%s", k, name)
	}
	return name
}
