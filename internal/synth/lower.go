package synth

import (
	"fmt"

	"ccube/internal/collective"
)

// Lower materializes an IR program as a collective.Schedule through
// collective.Assemble, which runs the full static verifier before it
// returns. This is the lowering contract: no schedule leaves the compiler
// unverified — structure, hazards, link validity, conservation, and
// (because synthesized programs claim in-order) the in-order proof all
// hold, or Lower fails.
func Lower(p *Program) (*collective.Schedule, error) {
	spec := collective.AssembleSpec{
		Graph:     p.Graph,
		Nodes:     p.Nodes,
		Partition: p.Partition,
		InOrder:   p.InOrder,
		Streams:   p.Streams,
		Contract:  collective.ContractAllReduce,
		Ops:       make([]collective.OpSpec, 0, len(p.Ops)),
	}
	for i, op := range p.Ops {
		o := collective.OpSpec{
			Label:   op.Label,
			Chunk:   op.Chunk,
			Bytes:   op.Bytes,
			Deps:    op.Deps,
			Channel: op.Channel,
		}
		switch op.Kind {
		case Marker:
			o.Channel = -1
			if op.FinalAt >= 0 {
				o.HasFinal, o.Final = true, p.Nodes[op.FinalAt]
			}
		case Send, Reduce:
			if op.Channel < 0 {
				return nil, fmt.Errorf("synth: lower: op %d (%s) is unrouted", i, op.Label)
			}
			o.Accumulate = op.Kind == Reduce
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
		default:
			return nil, fmt.Errorf("synth: lower: op %d (%s) has unknown kind %d", i, op.Label, op.Kind)
		}
		spec.Ops = append(spec.Ops, o)
	}
	s, err := collective.Assemble(spec)
	if err != nil {
		return nil, fmt.Errorf("synth: lower: %w", err)
	}
	return s, nil
}
