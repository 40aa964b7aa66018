package train

import (
	"context"
	"fmt"

	"ccube/internal/des"
)

// PipelineResult reports a multi-iteration simulation: RunCtx models a single
// steady-state cycle; RunPipeline executes several back-to-back iterations
// in one task graph and measures the actual cycle times, validating that
// the single-cycle abstraction holds (no cross-iteration interference: the
// one-shot collective of iteration k is fully drained before iteration
// k+1's backward ends, so cycles do not stretch).
type PipelineResult struct {
	Mode Mode

	// Boundaries[k] is when iteration k's chained forward pass finished on
	// the slowest GPU (the iteration boundary).
	Boundaries []des.Time

	// CycleTimes[k] = Boundaries[k] - Boundaries[k-1] (CycleTimes[0] is the
	// first full cycle from time zero).
	CycleTimes []des.Time

	// Graph is the executed multi-iteration graph, for timeline export
	// (internal/trace).
	Graph *des.Graph
}

// SteadyCycle returns the last cycle time — the steady-state iteration
// period.
func (p *PipelineResult) SteadyCycle() des.Time {
	return p.CycleTimes[len(p.CycleTimes)-1]
}

// RunPipeline simulates `iters` consecutive training iterations. Iteration
// k's backward pass on each GPU starts once that GPU finished iteration k's
// forward pass (which consumed iteration k-1's gradients); the one-shot
// AllReduce of iteration k launches when every GPU finished backward. A
// deadline or explicit cancel aborts the run with a wrapped
// *des.CanceledError.
func RunPipeline(ctx context.Context, cfg Config, iters int) (*PipelineResult, error) {
	if iters < 1 {
		return nil, fmt.Errorf("train: pipeline of %d iterations", iters)
	}
	a, revert, err := cfg.newAppender(false)
	if err != nil {
		return nil, err
	}
	defer revert()
	a.prefix = true
	for range iters {
		if err := a.appendIteration(); err != nil {
			return nil, err
		}
	}
	if _, err := a.g.RunCtx(ctx); err != nil {
		return nil, fmt.Errorf("train: pipeline aborted: %w", err)
	}
	res := &PipelineResult{Mode: cfg.Mode, Graph: a.g}
	var prevBoundary des.Time
	for k := range a.iters {
		var boundary des.Time
		for i := range a.nodes {
			boundary = max(boundary, a.g.End(a.fwdTask(&a.iters[k], i, len(a.fwd)-1)))
		}
		res.Boundaries = append(res.Boundaries, boundary)
		res.CycleTimes = append(res.CycleTimes, boundary-prevBoundary)
		prevBoundary = boundary
	}
	if err := a.validateSerialized(); err != nil {
		return nil, err
	}
	return res, nil
}
