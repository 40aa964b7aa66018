package collective

import (
	"fmt"

	"ccube/internal/chunk"
	"ccube/internal/schedcheck"
	"ccube/internal/topology"
)

// This file is the assembly boundary for externally compiled schedules.
// internal/synth hands its routed trees to AssembleForest and
// OverlappedChunk, which lay them out through the built-in tree
// algorithms' own tree phases; Assemble adopts ops written one by one, as
// the reference compilers in synth's and des's tests do. AssembleForest and
// Assemble prove their schedule with schedcheck.Check before they return,
// so an assembled schedule the checker never saw cannot exist.

// AssembleSpec is a complete externally compiled schedule.
type AssembleSpec struct {
	Graph     *topology.Graph
	Nodes     []topology.NodeID
	Partition chunk.Partition
	InOrder   bool
	Streams   int
	Contract  Contract
	// Ops is the schedule, op i with id i, and Deps[i] is op i's
	// dependencies. Assemble takes ownership of Ops and copies Deps into
	// the schedule's CSR.
	Ops  []schedcheck.Op
	Deps [][]int
}

// Assemble materializes an externally compiled schedule. Index sanity (dep
// and relay references must point at earlier ops, chunks must exist in the
// partition) is checked while adopting the ops; the result then passes
// Validate — structure, hazards, link validity, conservation and any
// in-order claim — and is stamped against the current topology before it is
// returned.
func Assemble(spec AssembleSpec) (*Schedule, error) {
	if spec.Graph == nil {
		return nil, fmt.Errorf("collective: assemble: nil graph")
	}
	if len(spec.Nodes) < 2 {
		return nil, fmt.Errorf("collective: assemble: %d participants", len(spec.Nodes))
	}
	if spec.Partition.NumChunks() == 0 {
		return nil, fmt.Errorf("collective: assemble: empty partition")
	}
	s := newSchedule(spec.Graph, append([]topology.NodeID(nil), spec.Nodes...), spec.Partition)
	s.InOrder = spec.InOrder
	s.Streams = spec.Streams
	s.Contract = spec.Contract
	if len(spec.Deps) != len(spec.Ops) {
		return nil, fmt.Errorf("collective: assemble: %d dependency lists for %d ops", len(spec.Deps), len(spec.Ops))
	}
	numChunks := spec.Partition.NumChunks()
	deps := 0
	for _, d := range spec.Deps {
		deps += len(d)
	}
	// add writes op i back into slot i of the caller's slice, after reading it.
	s.ops = spec.Ops[:0]
	s.reserveDeps(len(spec.Ops), deps)
	for i, op := range spec.Ops {
		if op.Chunk < 0 || int(op.Chunk) >= numChunks {
			return nil, fmt.Errorf("collective: assemble: op %d: chunk %d outside partition [0,%d)", i, op.Chunk, numChunks)
		}
		for _, d := range spec.Deps[i] {
			if d < 0 || d >= i {
				return nil, fmt.Errorf("collective: assemble: op %d: dep %d is not an earlier op", i, d)
			}
		}
		if int(op.Src.Relay) >= i {
			return nil, fmt.Errorf("collective: assemble: op %d: relay source %d is not an earlier op", i, op.Src.Relay)
		}
		s.add(op, spec.Deps[i]...)
	}
	return s.adopt()
}

// OverlappedChunk returns one chunk's pass over rt as AssembleForest lays
// it out: the reduction up the tree in ReduceOrder, the root-ready marker,
// and the broadcast down in Order, started the moment the chunk is reduced.
// Detour hops are relay-spliced (paper §IV-A). Op ids, deps and relay slots
// are relative to the pass; Chunk is zero, the pass's one chunk has no
// size, and the program has no graph.
func OverlappedChunk(nodes []topology.NodeID, rt RoutedTree) (schedcheck.Program, error) {
	s, err := chunkMajor(nil, nodes, chunk.Partition{Sizes: []int64{0}}, []RoutedTree{rt})
	if err != nil {
		return schedcheck.Program{}, err
	}
	return *s.Program(), nil
}

// AssembleForest builds the overlapped AllReduce of part's chunks over the
// routed trees, chunk-major: chunk c takes OverlappedChunk's pass over tree
// c mod t (t = len(trees)), every hop also depending on the same hop of
// chunk c-t. That FIFO chain, the persistent channel kernel, makes each
// tree an in-order stream. Like Assemble, it verifies and stamps the
// schedule before returning it.
func AssembleForest(g *topology.Graph, nodes []topology.NodeID, part chunk.Partition, trees []RoutedTree) (*Schedule, error) {
	if g == nil {
		return nil, fmt.Errorf("collective: assemble forest: nil graph")
	}
	s, err := chunkMajor(g, nodes, part, trees)
	if err != nil {
		return nil, err
	}
	return s.adopt()
}
