package train

import (
	"context"
	"errors"
	"fmt"

	"ccube/internal/collective"
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
// backward overlap. The cfg.Mode field is ignored (forced to ModeDDP). A
// deadline or explicit cancel aborts the run with a wrapped
// *des.CanceledError.
func RunBackwardOverlapCtx(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if cfg.Batch < 1 {
		return nil, fmt.Errorf("train: batch %d", cfg.Batch)
	}
	if cfg.Graph == nil {
		return nil, fmt.Errorf("train: nil graph")
	}
	nodes := cfg.Nodes
	if nodes == nil {
		nodes = cfg.Graph.GPUs()
	}
	dev := cfg.Device
	if dev.PeakFLOPS == 0 {
		dev = dnn.V100()
	}
	fwd := dev.FwdTimes(cfg.Model, cfg.Batch)
	bwd := dev.BwdTimes(cfg.Model, cfg.Batch)
	computeTime := dev.IterTime(cfg.Model, cfg.Batch)

	buckets := makeBuckets(cfg.Model.LayerBytes(), DefaultBucketBytes)

	g := des.NewGraph()
	chres := cfg.Graph.Resources()
	streams := make([]*des.Resource, len(nodes))
	for i, n := range nodes {
		streams[i] = des.NewResource(fmt.Sprintf("stream:%s", cfg.Graph.Node(n).Name))
	}

	// Backward tasks, slowed by the in-flight collective kernels, recording
	// per-layer completion across GPUs.
	bwdTask := make([][]int, len(nodes)) // [gpu][layer]
	for i := range nodes {
		bwdTask[i] = make([]int, len(bwd))
		prev := -1
		for l := len(bwd) - 1; l >= 0; l-- {
			var deps []int
			if prev >= 0 {
				deps = append(deps, prev)
			}
			dur := des.Time(float64(bwd[l]) * (1 + BackwardContention))
			prev = g.Add(fmt.Sprintf("bwd:g%d:l%d", i, l), streams[i], dur, deps...)
			bwdTask[i][l] = prev
		}
	}

	// One AllReduce per bucket, launched when every GPU has produced the
	// bucket's gradients (its first layer in forward order backs last).
	var commDoneDeps [][]int // per GPU, final tasks of each bucket
	commDoneDeps = make([][]int, len(nodes))
	for bi, bk := range buckets {
		var ready []int
		for i := range nodes {
			ready = append(ready, bwdTask[i][bk.firstLayer])
		}
		launch := g.Add(fmt.Sprintf("bucket%d:launch", bi), nil, BucketInvocationOverhead, ready...)
		// BuildCached: every iteration of a model asks for the same bucket
		// schedules, so each is built and verified once, then shared.
		sched, err := collective.BuildCached(collective.Config{
			Graph:               cfg.Graph,
			Algorithm:           collective.AlgRing, // DDP's default backend behavior
			Nodes:               nodes,
			Bytes:               bk.bytes,
			AllowSharedChannels: cfg.AllowSharedChannels,
		})
		if err != nil {
			return nil, fmt.Errorf("train: bucket %d: %w", bi, err)
		}
		block, err := sched.Instantiate(g, chres, launch)
		if err != nil {
			return nil, err
		}
		for i := range nodes {
			commDoneDeps[i] = append(commDoneDeps[i], block.Ready[i]...)
		}
	}

	// Forward waits for every bucket (no in-order property to chain on).
	fwdLast := make([]int, len(nodes))
	for i := range nodes {
		commDone := g.Add(fmt.Sprintf("comm-done:g%d", i), nil, 0, commDoneDeps[i]...)
		prev := commDone
		for l := 0; l < len(fwd); l++ {
			prev = g.Add(fmt.Sprintf("fwd:g%d:l%d", i, l), streams[i], fwd[l], prev)
		}
		fwdLast[i] = prev
	}

	if _, err := g.RunCtx(ctx); err != nil {
		var ce *des.CanceledError
		if errors.As(err, &ce) {
			return nil, fmt.Errorf("train: DDP iteration canceled: %w", err)
		}
		return nil, fmt.Errorf("train: DDP iteration aborted: %w", err)
	}
	res := &Result{Mode: ModeDDP, PerGPU: make([]des.Time, len(nodes)), ComputeTime: computeTime, Graph: g}
	for i := range nodes {
		res.PerGPU[i] = g.End(fwdLast[i])
		if res.PerGPU[i] > res.IterTime {
			res.IterTime = res.PerGPU[i]
		}
	}
	res.Normalized = float64(computeTime) / float64(res.IterTime)
	for _, r := range chres {
		if err := r.ValidateSerialized(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// NumBuckets reports how many DDP buckets a model produces (for tests).
func NumBuckets(m dnn.Model) int { return len(makeBuckets(m.LayerBytes(), DefaultBucketBytes)) }
