package collective

import (
	"context"
	"fmt"

	"ccube/internal/chunk"
	"ccube/internal/topology"
)

// This file implements the standalone collective primitives AllReduce is
// composed of — Broadcast, Reduce, ReduceScatter, AllGather — over the same
// schedule machinery. They matter to C-Cube twice over: the overlapped tree
// is literally a Reduce chained into a Broadcast (paper Fig. 5(c)), and a
// hierarchical multi-node AllReduce composes ReduceScatter/AllGather across
// levels (see hierarchical.go).

// Primitive identifies a standalone collective operation.
type Primitive int

const (
	// PrimBroadcast sends the root's buffer to every node (pipelined tree).
	PrimBroadcast Primitive = iota
	// PrimReduce accumulates every node's buffer at the root (pipelined tree).
	PrimReduce
	// PrimReduceScatter leaves node i with the fully reduced i-th block
	// (ring, P chunks).
	PrimReduceScatter
	// PrimAllGather distributes each node's i-th block to everyone (ring).
	PrimAllGather
)

func (p Primitive) String() string {
	switch p {
	case PrimBroadcast:
		return "broadcast"
	case PrimReduce:
		return "reduce"
	case PrimReduceScatter:
		return "reduce-scatter"
	case PrimAllGather:
		return "all-gather"
	default:
		return fmt.Sprintf("primitive(%d)", int(p))
	}
}

// PrimitiveConfig describes one standalone collective.
type PrimitiveConfig struct {
	Graph     *topology.Graph
	Primitive Primitive
	Nodes     []topology.NodeID // nil = all GPUs
	Bytes     int64
	Chunks    int // tree primitives only; 0 = cost-model optimum
	Root      int // participant index for Broadcast/Reduce (default 0 maps to the tree root)

	Tree                *Tree // optional tree override
	AllowSharedChannels bool
}

// BuildPrimitive constructs the schedule for a standalone collective.
func BuildPrimitive(cfg PrimitiveConfig) (*Schedule, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("collective: nil graph")
	}
	if cfg.Bytes <= 0 {
		return nil, fmt.Errorf("collective: message size %d", cfg.Bytes)
	}
	nodes := cfg.Nodes
	if nodes == nil {
		nodes = cfg.Graph.GPUs()
	}
	if len(nodes) < 2 {
		return nil, fmt.Errorf("collective: %d participants", len(nodes))
	}

	switch cfg.Primitive {
	case PrimBroadcast, PrimReduce:
		tree, err := primitiveTree(cfg, nodes)
		if err != nil {
			return nil, err
		}
		k := cfg.Chunks
		if k <= 0 {
			c := Config{Graph: cfg.Graph, Bytes: cfg.Bytes, Nodes: nodes}
			k = c.chunkCount()
		}
		// Chunk count is advisory here; clamp explicitly for tiny messages.
		part := chunk.SplitAtMost(cfg.Bytes, k)
		return buildTreePhase(cfg.Graph, nodes, part, tree, cfg.Primitive == PrimReduce, cfg.AllowSharedChannels)

	case PrimReduceScatter, PrimAllGather:
		if cfg.Bytes < int64(len(nodes)) {
			return nil, fmt.Errorf("collective: %d bytes cannot form the %d chunks a ring primitive needs", cfg.Bytes, len(nodes))
		}
		part := chunk.Split(cfg.Bytes, len(nodes))
		order := make([]int, len(nodes))
		for i := range order {
			order[i] = i
		}
		if isDGX1(cfg.Graph, nodes) {
			order = DGX1RingOrder()
		}
		return buildRingPhase(cfg.Graph, nodes, part, order, cfg.Primitive == PrimReduceScatter)

	default:
		return nil, fmt.Errorf("collective: unknown primitive %v", cfg.Primitive)
	}
}

// RunPrimitive builds and times a standalone collective.
func RunPrimitive(ctx context.Context, cfg PrimitiveConfig) (*Result, error) {
	s, err := BuildPrimitive(cfg)
	if err != nil {
		return nil, err
	}
	return s.ExecuteCtx(ctx)
}

// primitiveTree resolves the logical tree, rerooting to cfg.Root if set.
func primitiveTree(cfg PrimitiveConfig, nodes []topology.NodeID) (Tree, error) {
	var tree Tree
	if cfg.Tree != nil {
		tree = *cfg.Tree
	} else if isDGX1(cfg.Graph, nodes) {
		tree, _ = DGX1Trees()
	} else {
		tree = InorderTree(len(nodes))
	}
	if cfg.Root == 0 || cfg.Root == tree.Root {
		return tree, nil
	}
	if cfg.Root < 0 || cfg.Root >= len(nodes) {
		return Tree{}, fmt.Errorf("collective: root %d out of range", cfg.Root)
	}
	return tree.Reroot(cfg.Root)
}

// Reroot returns the tree re-rooted at participant r by reversing the
// parent pointers along the r-to-root path.
func (t Tree) Reroot(r int) (Tree, error) {
	if r < 0 || r >= len(t.Parent) {
		return Tree{}, fmt.Errorf("collective: reroot target %d out of range", r)
	}
	parent := append([]int(nil), t.Parent...)
	prev := -1
	for v := r; v != -1; {
		next := parent[v]
		parent[v] = prev
		prev = v
		v = next
	}
	return NewTree(parent)
}

// buildTreePhase constructs a single tree phase: reduction up the tree
// (reduce=true) or broadcast down it (reduce=false), pipelined over chunks.
func buildTreePhase(g *topology.Graph, nodes []topology.NodeID, part chunk.Partition, tree Tree, reduce, allowShared bool) (*Schedule, error) {
	if len(tree.Parent) != len(nodes) {
		return nil, fmt.Errorf("collective: tree spans %d participants, want %d", len(tree.Parent), len(nodes))
	}
	s := newSchedule(g, nodes, part)
	s.InOrder = true
	s.Streams = 1
	router := topology.NewRouter(g)
	routes, err := assignRoutes(g, nodes, tree, router, allowShared)
	if err != nil {
		return nil, err
	}

	if reduce {
		upHops := make(map[int][][]int)
		for ci := 0; ci < part.NumChunks(); ci++ {
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
				hopIDs := make([]int, 0, route.Hops())
				prev := -1
				for h, ch := range route.Channels {
					src := nodeBuf(nodes[v])
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
					label := fmt.Sprintf("reduce:up:%d->%d:c%d:h%d", v, tree.Parent[v], ci, h)
					var id int
					if h == route.Hops()-1 {
						id = s.addTransfer(label, ch, ci, part.Sizes[ci], src, nodeBuf(nodes[tree.Parent[v]]), true, hopDeps...)
					} else {
						id = s.addTransfer(label, ch, ci, part.Sizes[ci], src, bufRef{node: -1, relay: -1}, false, hopDeps...)
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
			s.addMarker(fmt.Sprintf("reduce:done:c%d", ci), ci, nodes[tree.Root], deps...)
			// A non-root's part in chunk ci is done once its up-send left.
			for _, v := range tree.PostOrder() {
				if v == tree.Root {
					continue
				}
				hops := upHops[v][ci]
				s.addMarker(fmt.Sprintf("reduce:sent:%d:c%d", v, ci), ci, nodes[v], hops[len(hops)-1])
			}
		}
		return s, nil
	}

	// Broadcast: root's buffer flows down, pipelined per chunk.
	downHops := make(map[int][][]int)
	for ci := 0; ci < part.NumChunks(); ci++ {
		for _, v := range tree.PreOrder() {
			for _, w := range tree.Children[v] {
				route := routes.down[w]
				var deps []int
				if v != tree.Root {
					hops := downHops[v][ci]
					deps = append(deps, hops[len(hops)-1])
				}
				hopIDs := make([]int, 0, route.Hops())
				prev := -1
				for h, ch := range route.Channels {
					src := nodeBuf(nodes[v])
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
					label := fmt.Sprintf("bcast:%d->%d:c%d:h%d", v, w, ci, h)
					var id int
					if h == route.Hops()-1 {
						id = s.addTransfer(label, ch, ci, part.Sizes[ci], src, nodeBuf(nodes[w]), false, hopDeps...)
						s.markFinal(id, nodes[w])
					} else {
						id = s.addTransfer(label, ch, ci, part.Sizes[ci], src, bufRef{node: -1, relay: -1}, false, hopDeps...)
						s.transfers[id].dst = relayBuf(id)
					}
					hopIDs = append(hopIDs, id)
					prev = id
				}
				downHops[w] = append(downHops[w], hopIDs)
			}
		}
	}
	// The root trivially has every chunk.
	for ci := 0; ci < part.NumChunks(); ci++ {
		s.addMarker(fmt.Sprintf("bcast:root:c%d", ci), ci, nodes[tree.Root])
	}
	return s, nil
}

// buildRingPhase constructs one ring phase: reduce-scatter (P-1 accumulate
// steps) or all-gather (P-1 copy steps).
func buildRingPhase(g *topology.Graph, nodes []topology.NodeID, part chunk.Partition, order []int, reduceScatter bool) (*Schedule, error) {
	p := len(nodes)
	if err := validateRingOrder(order, p); err != nil {
		return nil, err
	}
	s := newSchedule(g, nodes, part)
	s.InOrder = false
	router := topology.NewRouter(g)
	node := func(pos int) topology.NodeID { return nodes[order[((pos%p)+p)%p]] }
	next := make([]topology.ChannelID, p)
	for i := 0; i < p; i++ {
		rt, err := router.Route(node(i), node(i+1))
		if err != nil || !rt.Direct() {
			return nil, fmt.Errorf("collective: ring hop %v->%v needs a direct channel: %v",
				node(i), node(i+1), err)
		}
		next[i] = rt.Channels[0]
	}

	if reduceScatter {
		rs := make([][]int, p)
		for i := range rs {
			rs[i] = make([]int, p-1)
		}
		for step := 0; step < p-1; step++ {
			for pos := 0; pos < p; pos++ {
				c := ((pos-step)%p + p) % p
				var deps []int
				if step > 0 {
					deps = append(deps, rs[((pos-1)%p+p)%p][step-1])
				}
				rs[pos][step] = s.addTransfer(fmt.Sprintf("rs:s%d:pos%d:c%d", step, pos, c),
					next[pos], c, part.Sizes[c], nodeBuf(node(pos)), nodeBuf(node(pos+1)), true, deps...)
			}
		}
		for pos := 0; pos < p; pos++ {
			c := (pos + 1) % p
			s.addMarker(fmt.Sprintf("rs:done:pos%d", pos), c, node(pos), rs[((pos-1)%p+p)%p][p-2])
		}
		// ReduceScatter completes each chunk only at its owner; other
		// (node, chunk) pairs never become "ready", so mark them trivially
		// complete at start for Result bookkeeping: a ReduceScatter result's
		// ChunkReady is meaningful only at the owner.
		for pos := 0; pos < p; pos++ {
			for c := 0; c < p; c++ {
				if c != (pos+1)%p {
					s.addMarker(fmt.Sprintf("rs:unowned:pos%d:c%d", pos, c), c, node(pos))
				}
			}
		}
		return s, nil
	}

	// AllGather: position i starts owning chunk i.
	ag := make([][]int, p)
	for i := range ag {
		ag[i] = make([]int, p-1)
	}
	for pos := 0; pos < p; pos++ {
		s.addMarker(fmt.Sprintf("ag:own:pos%d", pos), pos, node(pos))
	}
	for step := 0; step < p-1; step++ {
		for pos := 0; pos < p; pos++ {
			c := ((pos-step)%p + p) % p
			var deps []int
			if step > 0 {
				deps = append(deps, ag[((pos-1)%p+p)%p][step-1])
			}
			id := s.addTransfer(fmt.Sprintf("ag:s%d:pos%d:c%d", step, pos, c),
				next[pos], c, part.Sizes[c], nodeBuf(node(pos)), nodeBuf(node(pos+1)), false, deps...)
			s.markFinal(id, node(pos+1))
			ag[pos][step] = id
		}
	}
	return s, nil
}
