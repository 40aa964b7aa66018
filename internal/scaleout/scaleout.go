// Package scaleout reproduces the paper's Fig. 14 simulations — the
// ASTRA-sim study in the original — by running the collective schedules on
// hierarchical, indirect (switched) topologies at 4 to 1024 nodes.
//
// Two series come out of the sweep:
//
//	Fig. 14(a): communication performance ratio of the overlapped tree (C1)
//	            over the ring, per message size, as node count grows;
//	Fig. 14(b): gradient-turnaround speedup of C1 over the baseline double
//	            tree (B), which grows with the chunk count (large messages).
package scaleout

import (
	"context"
	"fmt"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/sweep"
	"ccube/internal/topology"
)

// Point is one (node count, message size) cell of the sweep.
type Point struct {
	Nodes int
	Bytes int64

	RingTime    des.Time // R
	TreeTime    des.Time // B: double tree, phases separated
	OverlapTime des.Time // C1: overlapped double tree

	TreeTurnaround    des.Time
	OverlapTurnaround des.Time

	Chunks int // chunk count used by the tree algorithms
}

// OverlapVsRing returns the Fig. 14(a) metric: ring time / overlapped-tree
// time (>1 means C1 is faster).
func (p Point) OverlapVsRing() float64 {
	return float64(p.RingTime) / float64(p.OverlapTime)
}

// OverlapVsTree returns the communication speedup of C1 over B.
func (p Point) OverlapVsTree() float64 {
	return float64(p.TreeTime) / float64(p.OverlapTime)
}

// TurnaroundSpeedup returns the Fig. 14(b) metric: baseline turnaround /
// overlapped turnaround.
func (p Point) TurnaroundSpeedup() float64 {
	return float64(p.TreeTurnaround) / float64(p.OverlapTurnaround)
}

// Config parameterizes the sweep.
type Config struct {
	NodeCounts []int   // e.g. 4..1024, powers of two
	Sizes      []int64 // message sizes; the paper uses 16kB, 1MB, 64MB

	// ChunkBytes is the fixed chunk size for the tree algorithms,
	// NCCL-style: K = N / ChunkBytes (so 64MB yields 256 chunks, matching
	// the paper's "256 chunks for 64MB"). Default 256 kB. The chunk count is
	// clamped to [2, collective.MaxAutoChunks].
	ChunkBytes int64

	// Hierarchy overrides the fabric model; zero value uses defaults.
	Hierarchy topology.HierarchyConfig

	// Workers bounds the sweep's parallelism. 0 uses every available core;
	// 1 forces the serial reference path. Output order and content are
	// identical at any setting.
	Workers int
}

// DefaultConfig returns the paper's sweep: P in 4..1024 and the three
// message sizes of Fig. 14.
func DefaultConfig() Config {
	return Config{
		NodeCounts: []int{4, 8, 16, 32, 64, 128, 256, 512, 1024},
		Sizes:      []int64{16 << 10, 1 << 20, 64 << 20},
	}
}

// Run executes the sweep and returns one Point per (nodes, size) pair, in
// nodes-major order. Cells run on up to cfg.Workers goroutines (0 = all
// cores); the fabric graph for each node count is built once up front and
// shared read-only by that count's size cells.
func Run(cfg Config) ([]Point, error) {
	if len(cfg.NodeCounts) == 0 || len(cfg.Sizes) == 0 {
		return nil, fmt.Errorf("scaleout: empty sweep")
	}
	chunkBytes := cfg.ChunkBytes
	if chunkBytes == 0 {
		chunkBytes = 256 << 10
	}
	type cell struct {
		graph  *topology.Graph
		nodes  int
		bytes  int64
		chunks int
	}
	var cells []cell
	for _, p := range cfg.NodeCounts {
		if p < 2 {
			return nil, fmt.Errorf("scaleout: node count %d", p)
		}
		hcfg := cfg.Hierarchy
		if hcfg.NumGPUs == 0 {
			hcfg = topology.DefaultHierarchyConfig(p)
		}
		hcfg.NumGPUs = p
		g := topology.Hierarchy(hcfg)
		for _, n := range cfg.Sizes {
			k := int(n / chunkBytes)
			if k < 2 {
				k = 2
			}
			if k > collective.MaxAutoChunks {
				k = collective.MaxAutoChunks
			}
			cells = append(cells, cell{g, p, n, k})
		}
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = sweep.DefaultWorkers()
	}
	return sweep.Grid(len(cells), workers, func(i int) (Point, error) {
		c := cells[i]
		pt, err := runPoint(c.graph, c.nodes, c.bytes, c.chunks)
		if err != nil {
			return pt, fmt.Errorf("scaleout: P=%d N=%d: %w", c.nodes, c.bytes, err)
		}
		return pt, nil
	})
}

func runPoint(g *topology.Graph, p int, bytes int64, chunks int) (Point, error) {
	pt := Point{Nodes: p, Bytes: bytes, Chunks: chunks}

	// Fairness ("we assumed constant interconnect bandwidth as R"): the ring
	// gets both parallel fabric channels per pair, i.e. two concurrent rings
	// splitting the message, just as the two trees each get their own
	// channel set.
	identity := make([]int, p)
	for i := range identity {
		identity[i] = i
	}
	ring, err := collective.RunCtx(context.TODO(), collective.Config{Graph: g, Algorithm: collective.AlgRing,
		Bytes: bytes, RingOrders: [][]int{identity, identity}})
	if err != nil {
		return pt, err
	}
	pt.RingTime = ring.Total

	tree, err := collective.RunCtx(context.TODO(), collective.Config{Graph: g, Algorithm: collective.AlgDoubleTree,
		Bytes: bytes, Chunks: chunks})
	if err != nil {
		return pt, err
	}
	pt.TreeTime = tree.Total
	pt.TreeTurnaround = tree.Turnaround

	over, err := collective.RunCtx(context.TODO(), collective.Config{Graph: g, Algorithm: collective.AlgDoubleTreeOverlap,
		Bytes: bytes, Chunks: chunks})
	if err != nil {
		return pt, err
	}
	pt.OverlapTime = over.Total
	pt.OverlapTurnaround = over.Turnaround
	return pt, nil
}
