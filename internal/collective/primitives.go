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

// BuildPrimitive constructs the schedule for a standalone collective,
// verified and stamped as Build's.
func BuildPrimitive(cfg PrimitiveConfig) (*Schedule, error) { return verified(buildPrimitive(cfg)) }

func buildPrimitive(cfg PrimitiveConfig) (*Schedule, error) {
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
			c := Config{Graph: cfg.Graph, Bytes: cfg.Bytes}
			k = c.chunkCount(len(nodes))
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
	k, root := part.NumChunks(), tree.Root

	if reduce {
		up := newTreePhase(s, nodes, routes, true)
		// Per chunk, one done marker at the root and one sent marker per
		// other participant.
		ops, deps := up.cost(k, false)
		s.reserve(ops+k*len(nodes), deps+k*(len(tree.Children[root])+len(nodes)-1))
		for ci := 0; ci < k; ci++ {
			s.addMarker(ci, nodes[root], up.reduce(ci, ci > 0, nil)...)
			// A non-root's part in chunk ci is done once its up-send left.
			for _, v := range up.order {
				if v != root {
					s.addMarker(ci, nodes[v], up.last(v))
				}
			}
		}
		return s, nil
	}

	// Broadcast: root's buffer flows down, pipelined per chunk.
	down := newTreePhase(s, nodes, routes, false)
	ops, deps := down.cost(k, false)
	s.reserve(ops+k, deps)
	for ci := 0; ci < k; ci++ {
		down.broadcast(ci, ci > 0, -1)
	}
	// The root trivially has every chunk.
	for ci := 0; ci < k; ci++ {
		s.addMarker(ci, nodes[root])
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
	prev := func(pos int) int { return ((pos-1)%p + p) % p }
	next := make([]topology.ChannelID, p)
	for i := 0; i < p; i++ {
		rt, err := router.Route(node(i), node(i+1))
		if err != nil || !rt.Direct() {
			return nil, fmt.Errorf("collective: ring hop %v->%v needs a direct channel: %v",
				node(i), node(i+1), err)
		}
		next[i] = rt.Channels[0]
	}
	// p-1 steps of p sends, each after the first step chained to its
	// predecessor. Reduce-scatter adds p*p markers, p of them with one
	// dependency; all-gather p without.
	if reduceScatter {
		s.reserve(p*(p-1)+p*p, p*(p-2)+p)
	} else {
		s.reserve(p*(p-1)+p, p*(p-2))
	}

	// sent[pos*(p-1)+step] is position pos's send at step.
	sent := make([]int, p*(p-1))
	steps := func(accumulate bool) {
		for step := 0; step < p-1; step++ {
			for pos := 0; pos < p; pos++ {
				c := ((pos-step)%p + p) % p
				id := s.addTransfer(next[pos], c, node(pos), node(pos+1), accumulate)
				if step > 0 {
					s.addDep(sent[prev(pos)*(p-1)+step-1])
				}
				if !accumulate {
					s.ops[id].Final = int32(node(pos + 1))
				}
				sent[pos*(p-1)+step] = id
			}
		}
	}

	if reduceScatter {
		steps(true)
		for pos := 0; pos < p; pos++ {
			s.addMarker((pos+1)%p, node(pos), sent[prev(pos)*(p-1)+p-2])
		}
		// ReduceScatter completes each chunk only at its owner; other
		// (node, chunk) pairs never become "ready", so mark them trivially
		// complete at start for Result bookkeeping: a ReduceScatter result's
		// ChunkReady is meaningful only at the owner.
		for pos := 0; pos < p; pos++ {
			for c := 0; c < p; c++ {
				if c != (pos+1)%p {
					s.addMarker(c, node(pos))
				}
			}
		}
		return s, nil
	}

	// AllGather: position i starts owning chunk i.
	for pos := 0; pos < p; pos++ {
		s.addMarker(pos, node(pos))
	}
	steps(false)
	return s, nil
}
