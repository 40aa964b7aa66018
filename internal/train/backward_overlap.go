package train

import (
	"context"
	"errors"
	"fmt"

	"ccube/internal/des"
	"ccube/internal/dnn"
)

// This file implements the prior-work overlap strategy the paper argues
// against (Fig. 2(b)): bucketed gradient AllReduce launched during *backward*
// propagation, as PyTorch DDP / Horovod do. Gradients become available from
// the last layer backwards; once a bucket's worth is ready, an AllReduce for
// that bucket is invoked. The next iteration's forward pass still waits for
// every bucket to finish.
//
// Compared to C-Cube's one-shot + forward chaining this pays (a) one
// invocation overhead per bucket (Fig. 3's layer-wise penalty) and (b) the
// final bucket — the first layers' gradients, which the next forward needs
// first — cannot even start until backward fully completes. The paper's
// footnote 8 reports that PyTorch bucket overlap gave no significant benefit
// on their system; the BenchmarkAblationForwardVsBackwardOverlap ablation
// reproduces that comparison.

// ModeDDP is the bucketed backward-overlap configuration. It is not one of
// the paper's five evaluated modes; it exists for the prior-work ablation.
const ModeDDP Mode = "DDP"

// DefaultBucketBytes matches PyTorch DDP's default gradient bucket size.
const DefaultBucketBytes = 25 << 20

// BucketInvocationOverhead is the fixed cost of each bucket's collective
// launch (same calibration as the Fig. 3 study).
const BucketInvocationOverhead = 25 * des.Microsecond

// BackwardContention models the SM contention between the bucketed
// AllReduce kernels and the backward compute kernels they overlap with:
// the collectives run as ordinary kernels scheduled against backward, so
// backward slows down while they are in flight. This uncoordinated
// interference — absent in C-Cube, whose persistent kernels are
// co-scheduled with compute through device-side semaphores — is why the
// paper (footnote 8, citing Klenk et al. [31]) found PyTorch's bucket
// overlap gave no significant improvement on the DGX-1.
const BackwardContention = 0.12

// bucket is a contiguous run of layers communicated together.
type bucket struct {
	firstLayer, lastLayer int // inclusive, forward indexing
	bytes                 int64
}

// makeBuckets groups layers into buckets in backward order (gradients appear
// from the last layer first, so the last layers fill the first bucket).
func makeBuckets(layerBytes []int64, bucketBytes int64) []bucket {
	var out []bucket
	cur := bucket{firstLayer: -1, lastLayer: -1}
	for l := len(layerBytes) - 1; l >= 0; l-- {
		if cur.lastLayer == -1 {
			cur.lastLayer = l
		}
		cur.firstLayer = l
		cur.bytes += layerBytes[l]
		if cur.bytes >= bucketBytes {
			out = append(out, cur)
			cur = bucket{firstLayer: -1, lastLayer: -1}
		}
	}
	if cur.lastLayer != -1 {
		out = append(out, cur)
	}
	return out
}

// RunBackwardOverlapCtx simulates one iteration with DDP-style bucketed
// backward overlap. The cfg.Mode field is ignored (forced to ModeDDP).
// ComputeScale slows GPUs as in RunCtx; a non-empty Faults plan is
// rejected, since the bucket schedules are not repaired. A deadline or
// explicit cancel aborts the run with a wrapped *des.CanceledError.
func RunBackwardOverlapCtx(ctx context.Context, cfg Config) (*Result, error) {
	a, revert, err := cfg.newAppender(true)
	if err != nil {
		return nil, err
	}
	defer revert()
	if err := a.appendIteration(); err != nil {
		return nil, err
	}
	g := a.g
	if _, err := g.RunCtx(ctx); err != nil {
		var ce *des.CanceledError
		if errors.As(err, &ce) {
			return nil, fmt.Errorf("train: DDP iteration canceled: %w", err)
		}
		return nil, fmt.Errorf("train: DDP iteration aborted: %w", err)
	}
	res := &Result{Mode: ModeDDP, PerGPU: make([]des.Time, len(a.nodes)), ComputeTime: a.computeTime, Graph: g}
	for i := range a.nodes {
		res.PerGPU[i] = g.End(a.fwdTask(&a.iters[0], i, len(a.fwd)-1))
		res.IterTime = max(res.IterTime, res.PerGPU[i])
	}
	res.Normalized = float64(a.computeTime) / float64(res.IterTime)
	if err := a.validateSerialized(); err != nil {
		return nil, err
	}
	return res, nil
}

// NumBuckets reports how many DDP buckets a model produces (for tests).
func NumBuckets(m dnn.Model) int { return len(makeBuckets(m.LayerBytes(), DefaultBucketBytes)) }
