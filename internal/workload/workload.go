// Package workload models the MLPerf training workloads of the paper's
// Fig. 1: for each, a per-iteration compute profile and a gradient size,
// from which the fraction of execution time spent in AllReduce on an 8-GPU
// DGX-1 is derived.
//
// The paper measures these ratios with PyTorch + NCCL on real hardware; we
// substitute calibrated profiles (per DESIGN.md §2). Gradient sizes come
// from the published model sizes; compute times are set so that each
// workload's arithmetic intensity matches its published character
// (detection models: small batches, light backbones, comm-bound; NCF:
// memory-bound embedding work, comm-light).
package workload

import (
	"context"
	"fmt"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/topology"
)

// Profile is one benchmark workload's per-iteration behavior on an 8-GPU
// node (compute time excludes collective communication).
type Profile struct {
	Name          string
	GradientBytes int64
	ComputeTime   des.Time // per iteration, all-GPU critical path
	Description   string
}

// MLPerfProfiles returns the Fig. 1 workload suite. Ratios under the NCCL
// ring on the high-bandwidth DGX-1 reproduce the figure's shape: Single
// Stage Detector tops out around 60%, Neural Collaborative Filtering sits
// near 10%, the rest in between.
func MLPerfProfiles() []Profile {
	return []Profile{
		{
			Name:          "ssd",
			GradientBytes: 350 << 20,
			ComputeTime:   8 * des.Millisecond,
			Description:   "Single Stage Detector: light backbone on 300x300 crops, heavy multibox head gradients",
		},
		{
			Name:          "mask-rcnn",
			GradientBytes: 180 << 20,
			ComputeTime:   15 * des.Millisecond,
			Description:   "Mask R-CNN: ResNet-50 backbone plus FPN/ROI heads, per-GPU batch of a few images",
		},
		{
			Name:          "resnet50",
			GradientBytes: 102 << 20,
			ComputeTime:   25 * des.Millisecond,
			Description:   "Image classification: ResNet-50 at batch 32 per GPU",
		},
		{
			Name:          "transformer",
			GradientBytes: 240 << 20,
			ComputeTime:   30 * des.Millisecond,
			Description:   "Transformer translation: large embedding and attention matrices",
		},
		{
			Name:          "gnmt",
			GradientBytes: 130 << 20,
			ComputeTime:   35 * des.Millisecond,
			Description:   "GNMT recurrent translation: sequential LSTM steps dominate",
		},
		{
			Name:          "ncf",
			GradientBytes: 30 << 20,
			ComputeTime:   9500 * des.Microsecond,
			Description:   "Neural Collaborative Filtering: memory-bound embedding gathers, tiny dense layers",
		},
		{
			Name:          "minigo",
			GradientBytes: 88 << 20,
			ComputeTime:   25 * des.Millisecond,
			Description:   "MiniGo reinforcement learning: small residual tower, self-play dominates",
		},
	}
}

// ByName returns the named profile.
func ByName(name string) (Profile, error) {
	for _, p := range MLPerfProfiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown profile %q", name)
}

// Ratio is one workload's communication share of total iteration time.
type Ratio struct {
	Profile  Profile
	CommTime des.Time
	Fraction float64 // CommTime / (CommTime + ComputeTime)
}

// AllReduceRatio computes the fraction of execution time spent in AllReduce
// for a profile on the given topology with the given algorithm — the bars
// of Fig. 1 (the paper uses NCCL ring, i.e. AlgRing).
func AllReduceRatio(p Profile, g *topology.Graph, alg collective.Algorithm) (Ratio, error) {
	res, err := collective.RunCtx(context.TODO(), collective.Config{
		Graph:     g,
		Algorithm: alg,
		Bytes:     p.GradientBytes,
	})
	if err != nil {
		return Ratio{}, fmt.Errorf("workload %s: %w", p.Name, err)
	}
	total := res.Total + p.ComputeTime
	return Ratio{
		Profile:  p,
		CommTime: res.Total,
		Fraction: float64(res.Total) / float64(total),
	}, nil
}

// SuiteRatios computes AllReduceRatio for every profile in the suite.
func SuiteRatios(g *topology.Graph, alg collective.Algorithm) ([]Ratio, error) {
	var out []Ratio
	for _, p := range MLPerfProfiles() {
		r, err := AllReduceRatio(p, g, alg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
