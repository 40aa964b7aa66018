// Package core is the public entry point of the C-Cube library: a facade
// over the topology, collective, training, and scale-out machinery that the
// examples and command-line tools drive.
//
// The typical flow:
//
//	sys := core.DGX1(core.HighBandwidth)
//	res, err := sys.AllReduce(core.AllReduceOptions{
//	    Algorithm: collective.AlgDoubleTreeOverlap,
//	    Bytes:     64 << 20,
//	})
//	fmt.Println(res.Total, res.Turnaround)
//
// and for end-to-end training studies:
//
//	out, err := sys.Train(core.TrainOptions{Model: dnn.ResNet50(), Batch: 64, Mode: train.ModeCC})
package core

import (
	"context"
	"fmt"

	"ccube/internal/collective"
	"ccube/internal/dnn"
	"ccube/internal/topology"
	"ccube/internal/train"
)

// Bandwidth selects the DGX-1 interconnect configuration of the paper's
// evaluation: HighBandwidth uses the full NVLink rate; LowBandwidth models a
// PCIe-class interconnect (NVLink divided by 4, as the paper does by
// reducing AllReduce kernel threads 4x).
type Bandwidth int

const (
	HighBandwidth Bandwidth = iota
	LowBandwidth
)

// System is a physical platform plus the defaults the paper uses on it.
type System struct {
	Graph  *topology.Graph
	Device dnn.Device
	name   string
}

// DGX1 builds the paper's evaluation platform: an 8-GPU hybrid mesh-cube.
func DGX1(bw Bandwidth) *System {
	cfg := topology.DefaultDGX1Config()
	cfg.LowBandwidth = bw == LowBandwidth
	name := "dgx1-high"
	if cfg.LowBandwidth {
		name = "dgx1-low"
	}
	return &System{Graph: topology.DGX1(cfg), Device: dnn.V100(), name: name}
}

// Cluster builds a switched scale-out platform with the given GPU count.
func Cluster(numGPUs int) *System {
	return &System{
		Graph:  topology.Hierarchy(topology.DefaultHierarchyConfig(numGPUs)),
		Device: dnn.V100(),
		name:   fmt.Sprintf("cluster-%d", numGPUs),
	}
}

// Name returns a short identifier for the system.
func (s *System) Name() string { return s.name }

// AllReduceOptions configures one collective operation.
type AllReduceOptions struct {
	Algorithm collective.Algorithm
	Bytes     int64
	Chunks    int // 0 = cost-model optimum

	// AllowSharedChannels permits logical flows to share physical channels
	// (needed for double trees on topologies without duplicated links).
	AllowSharedChannels bool
}

// AllReduce runs one AllReduce on the system's DES and returns its timing.
func (s *System) AllReduce(opts AllReduceOptions) (*collective.Result, error) {
	return collective.RunCtx(context.TODO(), collective.Config{
		Graph:               s.Graph,
		Algorithm:           opts.Algorithm,
		Bytes:               opts.Bytes,
		Chunks:              opts.Chunks,
		AllowSharedChannels: opts.AllowSharedChannels,
	})
}

// TrainOptions configures one training-iteration study.
type TrainOptions struct {
	Model dnn.Model
	Batch int
	Mode  train.Mode

	Chunks              int
	AllowSharedChannels bool
}

// Train simulates one steady-state training iteration.
func (s *System) Train(opts TrainOptions) (*train.Result, error) {
	return train.RunCtx(context.TODO(), train.Config{
		Model:               opts.Model,
		Batch:               opts.Batch,
		Device:              s.Device,
		Graph:               s.Graph,
		Mode:                opts.Mode,
		Chunks:              opts.Chunks,
		AllowSharedChannels: opts.AllowSharedChannels,
	})
}

// CompareModes runs every paper mode (B, C1, C2, R, CC) on the same model
// and batch and returns results keyed by mode.
func (s *System) CompareModes(model dnn.Model, batch int) (map[train.Mode]*train.Result, error) {
	out := make(map[train.Mode]*train.Result, 5)
	for _, m := range train.Modes() {
		res, err := s.Train(TrainOptions{Model: model, Batch: batch, Mode: m})
		if err != nil {
			return nil, fmt.Errorf("core: mode %s: %w", m, err)
		}
		out[m] = res
	}
	return out, nil
}
