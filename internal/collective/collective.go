// Package collective implements the AllReduce algorithms the paper studies —
// ring, pipelined tree, double tree, and the overlapped (C1 / C-Cube) trees —
// as explicit transfer schedules over a physical topology.
//
// A Schedule can be executed two ways: ExecuteCtx runs it on the deterministic
// discrete-event engine and reports times (the basis of every figure
// reproduction), while ExecuteData runs its data semantics over real vectors
// to prove each algorithm actually computes an AllReduce.
package collective

import (
	"context"
	"fmt"

	"ccube/internal/chunk"
	"ccube/internal/costmodel"
	"ccube/internal/des"
	"ccube/internal/topology"
)

// Algorithm selects an AllReduce implementation.
type Algorithm int

const (
	// Ring is the P-chunk ring algorithm (NCCL ring, paper "R").
	AlgRing Algorithm = iota
	// Tree is a single pipelined binary tree with separated reduction and
	// broadcast phases (Fig. 5(a)).
	AlgTree
	// TreeOverlap is the single overlapped tree: broadcast chained with
	// reduction (Fig. 5(c), Fig. 6(c)).
	AlgTreeOverlap
	// DoubleTree is the two-tree algorithm with separated phases — the
	// paper's baseline "B" (Fig. 6(b)).
	AlgDoubleTree
	// DoubleTreeOverlap is the overlapped double tree — the communication
	// component of C-Cube, "C1"/"CC" (Fig. 6(d)). It requires the physical
	// topology to provide disjoint channels for the two trees' conflicting
	// edges (duplicated NVLink pairs on the DGX-1).
	AlgDoubleTreeOverlap
	// HalvingDoubling is the recursive halving/doubling algorithm of Thakur
	// et al. [52]: ring-equal bandwidth at tree-equal latency, requiring a
	// power-of-two participant count and direct channels between all
	// XOR-distance pairs (the DGX-1 mesh-cube provides them).
	AlgHalvingDoubling
	// Synth is a schedule compiled by internal/synth rather than one of the
	// hand-written builders above. Build cannot construct it — synthesized
	// schedules enter through Assemble and are cached under a Config whose
	// SynthKey carries the synthesis-config fingerprint (Cache.BuildWith).
	AlgSynth
)

func (a Algorithm) String() string {
	switch a {
	case AlgRing:
		return "ring"
	case AlgTree:
		return "tree"
	case AlgTreeOverlap:
		return "tree-overlap"
	case AlgDoubleTree:
		return "double-tree"
	case AlgDoubleTreeOverlap:
		return "double-tree-overlap"
	case AlgHalvingDoubling:
		return "halving-doubling"
	case AlgSynth:
		return "synth"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// MaxAutoChunks caps the automatically chosen chunk count.
const MaxAutoChunks = 512

// Config describes one AllReduce operation.
type Config struct {
	Graph     *topology.Graph
	Algorithm Algorithm

	// Nodes are the participating GPUs; nil means all GPU nodes in id order.
	Nodes []topology.NodeID

	// Bytes is the message size.
	Bytes int64

	// Chunks is the pipeline chunk count; 0 selects the cost-model optimum
	// K_opt (Eq. 4) from the first channel's alpha/beta, capped at
	// MaxAutoChunks. Ring ignores it (always exactly P chunks).
	Chunks int

	// Trees overrides the logical trees (tree algorithms only). Default:
	// the paper's DGX-1 mapping when the graph is the 8-GPU hybrid
	// mesh-cube, otherwise the generic inorder/shift double tree.
	Trees []Tree

	// RingOrder overrides the ring embedding with a single ring (ring only).
	RingOrder []int

	// RingOrders overrides the embedding with multiple link-disjoint rings,
	// the message split across them (takes precedence over RingOrder).
	// Default: the two disjoint Hamiltonian cycles of the DGX-1 mesh-cube,
	// or a single identity ring elsewhere.
	RingOrders [][]int

	// AllowSharedChannels lets tree flows share physical channels when no
	// exclusive channel is available. The DES then serializes the sharing
	// flows — this is how the repo demonstrates the paper's claim that a
	// plain double tree cannot be overlapped on single channels.
	AllowSharedChannels bool

	// SynthKey is the synthesis-config fingerprint (pass list, chunk-count
	// cap, tree-pack seed) for AlgSynth schedules. It is part of the cache
	// and store content address so two synthesis configs for the same graph
	// and size can never alias to one entry. Empty for built-in algorithms.
	SynthKey string
}

func (c *Config) nodes() []topology.NodeID {
	if c.Nodes != nil {
		return c.Nodes
	}
	return c.Graph.GPUs()
}

// isDGX1 reports whether the graph looks like the 8-GPU hybrid mesh-cube:
// 8 GPUs with missing cross-quad edges and duplicated quad-ring pairs.
func isDGX1(g *topology.Graph, nodes []topology.NodeID) bool {
	if len(nodes) != 8 || g.NumNodes() != 8 {
		return false
	}
	return !g.HasDirect(nodes[2], nodes[4]) && len(g.ChannelsBetween(nodes[2], nodes[3])) >= 2
}

// kOptFor returns the Eq. 4 optimum chunk count for the given channel
// parameters, clamped to [1, MaxAutoChunks].
func kOptFor(alpha, beta float64, p int, n float64) int {
	return costmodel.KOpt(costmodel.Params{Alpha: alpha, Beta: beta, P: p, N: n}, MaxAutoChunks)
}

// chunkCount resolves the chunk count for tree algorithms.
func (c *Config) chunkCount() int {
	if c.Chunks > 0 {
		return c.Chunks
	}
	ch := c.Graph.Channel(0)
	k := kOptFor(ch.Latency.Seconds(), 1/ch.Bandwidth, len(c.nodes()), float64(c.Bytes))
	if k < 2 {
		k = 2 // double trees need at least one chunk each
	}
	return k
}

// resolveRingOrders returns the ring embeddings Build will use for cfg:
// explicit overrides first, then the DGX-1 double Hamiltonian cycles, then a
// single identity ring. Factored out so the incremental rebuild path
// (incremental.go) derives the same partition shape Build would.
func resolveRingOrders(cfg Config, nodes []topology.NodeID) [][]int {
	orders := cfg.RingOrders
	if orders == nil && cfg.RingOrder != nil {
		orders = [][]int{cfg.RingOrder}
	}
	if orders == nil {
		if isDGX1(cfg.Graph, nodes) {
			orders = DGX1RingOrders()
		} else {
			identity := make([]int, len(nodes))
			for i := range identity {
				identity[i] = i
			}
			orders = [][]int{identity}
		}
	}
	return orders
}

// resolveTrees returns the logical trees Build will use for cfg.
func resolveTrees(cfg Config, nodes []topology.NodeID) []Tree {
	if cfg.Trees != nil {
		return cfg.Trees
	}
	var t1, t2 Tree
	if isDGX1(cfg.Graph, nodes) {
		t1, t2 = DGX1Trees()
	} else {
		t1, t2 = DoubleTrees(len(nodes))
	}
	switch cfg.Algorithm {
	case AlgTree, AlgTreeOverlap:
		return []Tree{t1}
	default:
		return []Tree{t1, t2}
	}
}

// partition computes the chunk partition Build would use for cfg, without
// building anything. It is the single source of truth for partition shape:
// Build consumes it directly, and the incremental rebuild path uses it to
// decide whether a cached sibling schedule has the same shape (equal chunk
// count) and can be patched instead of rebuilt.
func (c *Config) partition(nodes []topology.NodeID) (chunk.Partition, error) {
	switch c.Algorithm {
	case AlgRing:
		orders := resolveRingOrders(*c, nodes)
		need := len(nodes) * len(orders)
		if c.Bytes < int64(need) {
			return chunk.Partition{}, fmt.Errorf("collective: %d bytes cannot form the %d chunks a %d-ring schedule needs", c.Bytes, need, len(orders))
		}
		return chunk.Split(c.Bytes, need), nil

	case AlgHalvingDoubling:
		if c.Bytes < int64(len(nodes)) {
			return chunk.Partition{}, fmt.Errorf("collective: %d bytes cannot form the %d chunks halving-doubling needs", c.Bytes, len(nodes))
		}
		return chunk.Split(c.Bytes, len(nodes)), nil

	case AlgTree, AlgTreeOverlap, AlgDoubleTree, AlgDoubleTreeOverlap:
		trees := resolveTrees(*c, nodes)
		k := c.chunkCount()
		if k < len(trees) {
			k = len(trees)
		}
		// The chunk count is advisory for trees (KOpt heuristic), so an
		// explicit clamp is correct; buildTreeSchedule re-validates that the
		// actual count can feed every tree.
		return chunk.SplitAtMost(c.Bytes, k), nil

	case AlgSynth:
		return chunk.Partition{}, fmt.Errorf("collective: synth schedules are compiled by internal/synth, not Build")

	default:
		return chunk.Partition{}, fmt.Errorf("collective: unknown algorithm %v", c.Algorithm)
	}
}

// Build constructs the transfer schedule for the configured operation.
func Build(cfg Config) (*Schedule, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("collective: nil graph")
	}
	if cfg.Bytes <= 0 {
		return nil, fmt.Errorf("collective: message size %d", cfg.Bytes)
	}
	nodes := cfg.nodes()
	if len(nodes) < 2 {
		return nil, fmt.Errorf("collective: %d participants", len(nodes))
	}

	part, err := cfg.partition(nodes)
	if err != nil {
		return nil, err
	}

	switch cfg.Algorithm {
	case AlgRing:
		return buildRingSchedule(cfg.Graph, nodes, part, resolveRingOrders(cfg, nodes))

	case AlgHalvingDoubling:
		return buildHalvingDoublingSchedule(cfg.Graph, nodes, part)

	default: // partition() already rejected unknown algorithms
		overlap := cfg.Algorithm == AlgTreeOverlap || cfg.Algorithm == AlgDoubleTreeOverlap
		return buildTreeSchedule(cfg.Graph, nodes, part, resolveTrees(cfg, nodes), overlap, cfg.AllowSharedChannels)
	}
}

// RunCtx builds and executes the configured AllReduce, returning its timing.
// Builds go through the DefaultCache: repeated runs of the same (topology
// content, algorithm, size) reuse the verified schedule and pay only for
// execution. The build itself is not cancellable (it is fast and verified;
// cancelling it would poison nothing), while the execution aborts at its
// next checkpoint when ctx is cancelled, surfacing a wrapped
// *des.CanceledError.
func RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("collective: execution canceled: %w",
			&des.CanceledError{Cause: err})
	}
	s, err := BuildCached(cfg)
	if err != nil {
		return nil, err
	}
	return s.ExecuteCtx(ctx)
}
