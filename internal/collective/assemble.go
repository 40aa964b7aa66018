package collective

import (
	"fmt"

	"ccube/internal/chunk"
	"ccube/internal/schedcheck"
	"ccube/internal/topology"
)

// This file is the assembly boundary for externally compiled schedules:
// internal/synth emits its plans straight into the schedule IR
// (schedcheck.Op) and Assemble adopts them as a Schedule, the same type the
// hand-written builders produce, so synthesized collectives flow through
// schedcheck, the cache/store, and the DES engine unchanged.
//
// Assemble is the only way to obtain an externally compiled schedule, and it
// runs the full static verifier before returning, so an assembled schedule
// the checker never saw cannot exist.

// AssembleSpec is a complete externally compiled schedule.
type AssembleSpec struct {
	Graph     *topology.Graph
	Nodes     []topology.NodeID
	Partition chunk.Partition
	InOrder   bool
	Streams   int
	Contract  Contract
	// Ops is the schedule, op i with id i. Assemble takes ownership of the
	// slice: it numbers the ops in place and moves their Deps, which may
	// live in any scratch storage, into the schedule's one arena.
	Ops []schedcheck.Op
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
	numChunks := spec.Partition.NumChunks()
	deps := 0
	for i := range spec.Ops {
		deps += len(spec.Ops[i].Deps)
	}
	// add writes op i back into slot i of the caller's slice, after reading it.
	s.ops = spec.Ops[:0]
	s.deps = make([]int, 0, deps)
	for i, op := range spec.Ops {
		if op.Chunk < 0 || op.Chunk >= numChunks {
			return nil, fmt.Errorf("collective: assemble: op %d: chunk %d outside partition [0,%d)", i, op.Chunk, numChunks)
		}
		for _, d := range op.Deps {
			if d < 0 || d >= i {
				return nil, fmt.Errorf("collective: assemble: op %d: dep %d is not an earlier op", i, d)
			}
		}
		if op.Src.Relay >= i {
			return nil, fmt.Errorf("collective: assemble: op %d: relay source %d is not an earlier op", i, op.Src.Relay)
		}
		s.add(op, op.Deps...)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("collective: assembled schedule failed verification: %w", err)
	}
	s.stamp()
	return s, nil
}
