package collective

import (
	"context"
	"fmt"

	"ccube/internal/chunk"
	"ccube/internal/topology"
)

// Hierarchical C-Cube: an extension composing the paper's chaining across a
// multi-node cluster. Real large-scale AllReduce is hierarchical — an
// intra-node phase over NVLink, an inter-node phase over the fabric, and an
// intra-node distribution phase. Each phase is a tree, and the in-order
// property that lets C-Cube chain reduction into broadcast inside one box
// also lets it chain *across levels*:
//
//	chunk c reduced inside box b
//	  -> box leader injects c into the inter-node tree immediately
//	       -> leaders broadcast c back down into their boxes immediately
//
// The baseline runs the same three phases with barriers in between (each
// phase waits for the previous phase to finish all chunks), which is how
// non-chained hierarchical collectives behave.
type HierarchicalConfig struct {
	Cluster *topology.MultiNode
	Bytes   int64
	Chunks  int // 0 = cost-model optimum from the fabric channel

	// Chained enables chunk-level chaining across all three levels (the
	// C-Cube composition); false inserts phase barriers (baseline).
	Chained bool
}

// BuildHierarchical constructs the cluster-wide AllReduce schedule,
// verified and stamped as Build's.
func BuildHierarchical(cfg HierarchicalConfig) (*Schedule, error) {
	return verified(buildHierarchical(cfg))
}

func buildHierarchical(cfg HierarchicalConfig) (*Schedule, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("collective: nil cluster")
	}
	if cfg.Bytes <= 0 {
		return nil, fmt.Errorf("collective: message size %d", cfg.Bytes)
	}
	g := cfg.Cluster.Graph
	boxes := cfg.Cluster.BoxNodes
	leaders := cfg.Cluster.Leaders
	m := len(boxes)
	if m < 2 {
		return nil, fmt.Errorf("collective: %d boxes", m)
	}

	k := cfg.Chunks
	if k <= 0 {
		// The fabric is the bottleneck; pick K from its alpha/beta.
		var fabric *topology.Channel
		for _, ch := range g.ChannelsBetween(leaders[0], leaders[1]) {
			fabric = g.Channel(ch)
			break
		}
		if fabric == nil {
			return nil, fmt.Errorf("collective: no fabric channel between leaders")
		}
		k = autoChunksFor(fabric, m, cfg.Bytes)
	}
	part := chunk.SplitAtMost(cfg.Bytes, k)
	k = part.NumChunks()

	var nodes []topology.NodeID
	for _, box := range boxes {
		nodes = append(nodes, box...)
	}
	s := newSchedule(g, nodes, part)
	s.InOrder = true
	s.Streams = 1
	s.Contract = ContractAllReduce

	intraTree, _ := DGX1Trees()
	if intraTree.Root != indexOf(boxes[0], leaders[0]) {
		return nil, fmt.Errorf("collective: leader GPU must be the intra-node tree root (GPU%d)", intraTree.Root)
	}

	// Route every phase before emitting anything, so the schedule reserves
	// its exact size.
	boxUp := make([]treePhase, m)
	boxDown := make([]treePhase, m)
	for b := 0; b < m; b++ {
		routes, err := assignRoutes(g, boxes[b], intraTree, topology.NewRouter(g), false)
		if err != nil {
			return nil, fmt.Errorf("collective: box %d intra routes: %w", b, err)
		}
		boxUp[b] = newTreePhase(s, boxes[b], routes, true)
		boxDown[b] = newTreePhase(s, boxes[b], routes, false)
	}
	interTree := InorderTree(m)
	interRoutes, err := assignRoutes(g, leaders, interTree, topology.NewRouter(g), false)
	if err != nil {
		return nil, fmt.Errorf("collective: inter-node routes: %w", err)
	}
	interUp := newTreePhase(s, leaders, interRoutes, true)
	interDown := newTreePhase(s, leaders, interRoutes, false)

	ops, deps := 0, 0
	add := func(o, d int) { ops, deps = ops+o, deps+d }
	for b := 0; b < m; b++ {
		add(boxUp[b].cost(k, false))
		add(k, k*len(intraTree.Children[intraTree.Root])) // box-ready markers
		add(boxDown[b].cost(k, true))
	}
	add(interUp.cost(k, true))
	add(k, k*(len(interTree.Children[interTree.Root])+1)) // inter-ready markers
	add(interDown.cost(k, true))
	if !cfg.Chained {
		add(3, 2*m+1) // the three phase barriers
	}
	s.reserve(ops, deps)

	// Phase 1: intra-node reduction per box. boxReady[b*k+ci] marks chunk
	// ci reduced at box b's leader.
	boxReady := make([]int, m*k)
	for b := 0; b < m; b++ {
		for ci := 0; ci < k; ci++ {
			boxReady[b*k+ci] = s.addMarker(ci, -1, boxUp[b].reduce(ci, ci > 0, nil)...)
		}
	}

	barrier1 := -1
	if !cfg.Chained {
		barrier1 = s.addMarker(k-1, -1)
		for b := 0; b < m; b++ {
			s.addDep(boxReady[b*k+k-1])
		}
	}

	// Phase 2: inter-node AllReduce among leaders over a single tree,
	// overlapped in chained mode. The inter-root leader's buffer is globally
	// reduced at interReady.
	interReady := make([]int, k)
	for ci := 0; ci < k; ci++ {
		boxDone := func(l int) int {
			if cfg.Chained {
				return boxReady[l*k+ci]
			}
			return barrier1
		}
		interReady[ci] = s.addMarker(ci, leaders[interTree.Root], interUp.reduce(ci, ci > 0, boxDone)...)
	}

	barrier2 := -1
	if !cfg.Chained {
		barrier2 = s.addMarker(k-1, -1, interReady[k-1])
	}

	// leaderHas[b*k+ci]: the op making chunk ci final at box b's leader.
	leaderHas := make([]int, m*k)
	for ci := 0; ci < k; ci++ {
		dep := barrier2
		if cfg.Chained {
			dep = interReady[ci]
		}
		interDown.broadcast(ci, ci > 0, dep)
		for b := 0; b < m; b++ {
			leaderHas[b*k+ci] = interReady[ci]
			if b != interTree.Root {
				leaderHas[b*k+ci] = interDown.last(b)
			}
		}
	}

	barrier3 := -1
	if !cfg.Chained {
		barrier3 = s.addMarker(k-1, -1)
		for b := 0; b < m; b++ {
			s.addDep(leaderHas[b*k+k-1])
		}
	}

	// Phase 3: intra-node broadcast per box.
	for b := 0; b < m; b++ {
		for ci := 0; ci < k; ci++ {
			dep := barrier3
			if cfg.Chained {
				dep = leaderHas[b*k+ci]
			}
			boxDown[b].broadcast(ci, ci > 0, dep)
		}
	}
	return s, nil
}

// RunHierarchical builds and times the hierarchical AllReduce.
func RunHierarchical(ctx context.Context, cfg HierarchicalConfig) (*Result, error) {
	s, err := BuildHierarchical(cfg)
	if err != nil {
		return nil, err
	}
	return s.ExecuteCtx(ctx)
}

func indexOf(nodes []topology.NodeID, n topology.NodeID) int {
	for i, v := range nodes {
		if v == n {
			return i
		}
	}
	return -1
}

// autoChunksFor picks the cost-model optimum chunk count for a channel.
func autoChunksFor(ch *topology.Channel, p int, bytes int64) int {
	k := kOptFor(ch.Latency.Seconds(), 1/ch.Bandwidth, p, float64(bytes))
	if k < 2 {
		k = 2
	}
	if k > MaxAutoChunks {
		k = MaxAutoChunks
	}
	return k
}
