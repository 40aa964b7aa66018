package train

import (
	"context"
	"fmt"

	"ccube/internal/chunk"
	"ccube/internal/collective"
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
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if iters < 1 {
		return nil, fmt.Errorf("train: pipeline of %d iterations", iters)
	}
	nodes := cfg.Nodes
	if nodes == nil {
		nodes = cfg.Graph.GPUs()
	}
	sched, err := cfg.buildSchedule(nodes)
	if err != nil {
		return nil, err
	}
	alg, err := cfg.Mode.algorithm()
	if err != nil {
		return nil, err
	}
	dev := cfg.device()
	fwd := dev.FwdTimes(cfg.Model, cfg.Batch)
	bwd := dev.BwdTimes(cfg.Model, cfg.Batch)
	table := chunk.BuildLayerChunkTable(cfg.Model.LayerBytes(), sched.Partition)
	numTrees := 1
	if cfg.Cluster == nil &&
		(alg == collective.AlgDoubleTree || alg == collective.AlgDoubleTreeOverlap) {
		numTrees = 2
	}

	g := des.NewGraph()
	chres := cfg.Graph.Resources()
	streams := make([]*des.Resource, len(nodes))
	tax := cfg.DetourSMTax
	if tax == 0 {
		tax = DefaultDetourSMTax
	}
	detour := make(map[int]bool)
	for _, n := range sched.DetourNodes() {
		for i, nd := range nodes {
			if nd == n {
				detour[i] = true
			}
		}
	}
	for i, n := range nodes {
		streams[i] = des.NewResource(fmt.Sprintf("stream:%s", cfg.Graph.Node(n).Name))
	}

	res := &PipelineResult{Mode: cfg.Mode}
	boundaryTasks := make([][]int, iters)
	// prevFwdLast[i]: last forward task of the previous iteration on GPU i.
	prevFwdLast := make([]int, len(nodes))
	for i := range prevFwdLast {
		prevFwdLast[i] = -1
	}

	for k := 0; k < iters; k++ {
		// Backward, layers L-1..0.
		lastBwd := make([]int, len(nodes))
		for i := range nodes {
			prev := prevFwdLast[i]
			for l := len(bwd) - 1; l >= 0; l-- {
				var deps []int
				if prev >= 0 {
					deps = append(deps, prev)
				}
				prev = g.Add(fmt.Sprintf("it%d:bwd:g%d:l%d", k, i, l), streams[i], bwd[l], deps...)
			}
			lastBwd[i] = prev
		}
		bwdDone := g.Add(fmt.Sprintf("it%d:bwd-done", k), nil, 0, lastBwd...)

		ready, err := sched.Instantiate(g, chres, bwdDone)
		if err != nil {
			return nil, err
		}
		kChunks := sched.Partition.NumChunks()
		commDone := make([]int, len(nodes))
		for i := range nodes {
			var deps []int
			if sched.InOrder {
				for t := 0; t < numTrees && t < kChunks; t++ {
					if last := lastTreeChunkAtMost(kChunks-1, kChunks, numTrees, t); last >= 0 {
						deps = append(deps, ready[i][last])
					}
				}
			} else {
				deps = append(deps, ready[i]...)
			}
			commDone[i] = g.Add(fmt.Sprintf("it%d:comm-done:g%d", k, i), nil, 0, deps...)
		}

		// Forward of the next iteration (chained per mode).
		iterLast := make([]int, len(nodes))
		for i := range nodes {
			scale := 1.0
			if tax > 0 && detour[i] {
				scale = 1 / (1 - tax)
			}
			prev := -1
			for l := 0; l < len(fwd); l++ {
				var deps []int
				if prev >= 0 {
					deps = append(deps, prev)
				}
				if cfg.Mode.chained() && sched.InOrder {
					lastChunk := table.LastChunk[l]
					for t := 0; t < numTrees; t++ {
						if c := lastTreeChunkAtMost(lastChunk, kChunks, numTrees, t); c >= 0 {
							deps = append(deps, ready[i][c])
						}
					}
				} else {
					deps = append(deps, commDone[i])
				}
				dur := des.Time(float64(fwd[l]) * scale)
				prev = g.Add(fmt.Sprintf("it%d:fwd:g%d:l%d", k, i, l), streams[i], dur, deps...)
			}
			iterLast[i] = prev
			prevFwdLast[i] = prev
		}
		boundaryTasks[k] = iterLast
	}

	if _, err := g.RunCtx(ctx); err != nil {
		return nil, fmt.Errorf("train: pipeline aborted: %w", err)
	}
	var prevBoundary des.Time
	for k := 0; k < iters; k++ {
		var boundary des.Time
		for _, id := range boundaryTasks[k] {
			if end := g.End(id); end > boundary {
				boundary = end
			}
		}
		res.Boundaries = append(res.Boundaries, boundary)
		res.CycleTimes = append(res.CycleTimes, boundary-prevBoundary)
		prevBoundary = boundary
	}
	for _, r := range chres {
		if err := r.ValidateSerialized(); err != nil {
			return nil, err
		}
	}
	return res, nil
}
