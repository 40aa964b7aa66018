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

// BuildHierarchical constructs the cluster-wide AllReduce schedule.
func BuildHierarchical(cfg HierarchicalConfig) (*Schedule, error) {
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

	// Phase 1: intra-node reduction per box.
	boxReady := make([][]int, m) // boxReady[b][ci]
	intraRoutes := make([]edgeRoutes, m)
	for b := 0; b < m; b++ {
		router := topology.NewRouter(g)
		routes, err := assignRoutes(g, boxes[b], intraTree, router, false)
		if err != nil {
			return nil, fmt.Errorf("collective: box %d intra routes: %w", b, err)
		}
		intraRoutes[b] = routes
		boxReady[b] = addReducePhase(s, boxes[b], intraTree, routes, k, nil,
			fmt.Sprintf("box%d:reduce", b))
	}

	barrier1 := -1
	if !cfg.Chained {
		var deps []int
		for b := 0; b < m; b++ {
			deps = append(deps, boxReady[b][k-1])
		}
		barrier1 = s.addMarker("barrier:intra-reduce", k-1, -1, deps...)
	}

	// Phase 2: inter-node AllReduce among leaders over a single tree,
	// overlapped in chained mode.
	interTree := InorderTree(m)
	interRouter := topology.NewRouter(g)
	interRoutes, err := assignRoutes(g, leaders, interTree, interRouter, false)
	if err != nil {
		return nil, fmt.Errorf("collective: inter-node routes: %w", err)
	}
	interReady := addReducePhase(s, leaders, interTree, interRoutes, k,
		func(l, ci int) []int {
			if cfg.Chained {
				return []int{boxReady[l][ci]}
			}
			return []int{barrier1}
		},
		"inter:reduce")
	// The inter-root leader's buffer is globally reduced at interReady.
	for ci := 0; ci < k; ci++ {
		s.markFinal(interReady[ci], leaders[interTree.Root])
	}

	barrier2 := -1
	if !cfg.Chained {
		barrier2 = s.addMarker("barrier:inter-reduce", k-1, -1, interReady[k-1])
	}

	interArrive := addBroadcastPhase(s, leaders, interTree, interRoutes, k,
		func(ci int) []int {
			if cfg.Chained {
				return []int{interReady[ci]}
			}
			return []int{barrier2}
		},
		true, "inter:bcast")

	// leaderHas[b][ci]: task making chunk ci final at box b's leader.
	leaderHas := make([][]int, m)
	for b := 0; b < m; b++ {
		if b == interTree.Root {
			leaderHas[b] = interReady
		} else {
			leaderHas[b] = interArrive[b]
		}
	}

	barrier3 := -1
	if !cfg.Chained {
		var deps []int
		for b := 0; b < m; b++ {
			deps = append(deps, leaderHas[b][k-1])
		}
		barrier3 = s.addMarker("barrier:inter-bcast", k-1, -1, deps...)
	}

	// Phase 3: intra-node broadcast per box.
	for b := 0; b < m; b++ {
		b := b
		addBroadcastPhase(s, boxes[b], intraTree, intraRoutes[b], k,
			func(ci int) []int {
				if cfg.Chained {
					return []int{leaderHas[b][ci]}
				}
				return []int{barrier3}
			},
			true, fmt.Sprintf("box%d:bcast", b))
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

// addReducePhase adds one pipelined reduction over a tree of participants;
// extraDeps (optional) injects per-participant per-chunk external
// dependencies (e.g. "box b reduced chunk ci") into each up-send. It
// returns the per-chunk root-ready marker ids.
func addReducePhase(s *Schedule, parts []topology.NodeID, tree Tree, routes edgeRoutes, k int,
	extraDeps func(participant, ci int) []int, prefix string) []int {

	upHops := make(map[int][][]int)
	ready := make([]int, k)
	for ci := 0; ci < k; ci++ {
		bytes := s.Partition.Sizes[ci]
		for _, v := range tree.PostOrder() {
			if v == tree.Root {
				continue
			}
			route := routes.up[v]
			var deps []int
			for _, w := range tree.Children[v] {
				hops := upHops[w][ci]
				deps = append(deps, hops[len(hops)-1])
			}
			if extraDeps != nil {
				deps = append(deps, extraDeps(v, ci)...)
			}
			hopIDs := make([]int, 0, route.Hops())
			prev := -1
			for h, ch := range route.Channels {
				src := nodeBuf(parts[v])
				if h > 0 {
					src = relayBuf(prev)
				}
				var hopDeps []int
				if h == 0 {
					hopDeps = deps
				} else {
					hopDeps = []int{prev}
				}
				if ci > 0 {
					hopDeps = append(hopDeps, upHops[v][ci-1][h])
				}
				label := fmt.Sprintf("%s:up:%d->%d:c%d:h%d", prefix, v, tree.Parent[v], ci, h)
				var id int
				if h == route.Hops()-1 {
					id = s.addTransfer(label, ch, ci, bytes, src, nodeBuf(parts[tree.Parent[v]]), true, hopDeps...)
				} else {
					id = s.addTransfer(label, ch, ci, bytes, src, bufRef{node: -1, relay: -1}, false, hopDeps...)
					s.transfers[id].dst = relayBuf(id)
				}
				hopIDs = append(hopIDs, id)
				prev = id
			}
			upHops[v] = append(upHops[v], hopIDs)
		}
		var deps []int
		for _, w := range tree.Children[tree.Root] {
			hops := upHops[w][ci]
			deps = append(deps, hops[len(hops)-1])
		}
		if extraDeps != nil {
			deps = append(deps, extraDeps(tree.Root, ci)...)
		}
		ready[ci] = s.addMarker(fmt.Sprintf("%s:ready:c%d", prefix, ci), ci, -1, deps...)
	}
	return ready
}

// addBroadcastPhase adds one pipelined broadcast from the tree root;
// chunkDeps(ci) gates the root's send of chunk ci (e.g. "chunk globally
// reduced"). When markFinals is set, each arrival marks the chunk final at
// the receiving participant. It returns arrive[participant][ci] task ids
// (the root has none).
func addBroadcastPhase(s *Schedule, parts []topology.NodeID, tree Tree, routes edgeRoutes, k int,
	chunkDeps func(ci int) []int, markFinals bool, prefix string) [][]int {

	downHops := make(map[int][][]int)
	arrive := make([][]int, len(parts))
	for i := range arrive {
		arrive[i] = make([]int, k)
		for ci := range arrive[i] {
			arrive[i][ci] = -1
		}
	}
	for ci := 0; ci < k; ci++ {
		bytes := s.Partition.Sizes[ci]
		for _, v := range tree.PreOrder() {
			for _, w := range tree.Children[v] {
				route := routes.down[w]
				var deps []int
				if v == tree.Root {
					if chunkDeps != nil {
						deps = append(deps, chunkDeps(ci)...)
					}
				} else {
					hops := downHops[v][ci]
					deps = append(deps, hops[len(hops)-1])
				}
				hopIDs := make([]int, 0, route.Hops())
				prev := -1
				for h, ch := range route.Channels {
					src := nodeBuf(parts[v])
					if h > 0 {
						src = relayBuf(prev)
					}
					var hopDeps []int
					if h == 0 {
						hopDeps = deps
					} else {
						hopDeps = []int{prev}
					}
					if ci > 0 {
						hopDeps = append(hopDeps, downHops[w][ci-1][h])
					}
					label := fmt.Sprintf("%s:%d->%d:c%d:h%d", prefix, v, w, ci, h)
					var id int
					if h == route.Hops()-1 {
						id = s.addTransfer(label, ch, ci, bytes, src, nodeBuf(parts[w]), false, hopDeps...)
						if markFinals {
							s.markFinal(id, parts[w])
						}
					} else {
						id = s.addTransfer(label, ch, ci, bytes, src, bufRef{node: -1, relay: -1}, false, hopDeps...)
						s.transfers[id].dst = relayBuf(id)
					}
					hopIDs = append(hopIDs, id)
					prev = id
				}
				downHops[w] = append(downHops[w], hopIDs)
				arrive[w][ci] = hopIDs[len(hopIDs)-1]
			}
		}
	}
	return arrive
}
