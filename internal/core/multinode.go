package core

import (
	"context"
	"fmt"

	"ccube/internal/collective"
	"ccube/internal/dnn"
	"ccube/internal/topology"
	"ccube/internal/train"
)

// ClusterOfDGX1 holds a multi-box cluster for hierarchical studies.
type ClusterOfDGX1 struct {
	Cluster *topology.MultiNode
	Device  dnn.Device
}

// NewClusterOfDGX1 builds a cluster of `boxes` high-bandwidth DGX-1s joined
// by a dual-rail fabric.
func NewClusterOfDGX1(boxes int) (*ClusterOfDGX1, error) {
	mn, err := topology.BuildMultiNode(topology.DefaultMultiNodeConfig(boxes))
	if err != nil {
		return nil, err
	}
	return &ClusterOfDGX1{Cluster: mn, Device: dnn.V100()}, nil
}

// NumGPUs returns the total GPU count.
func (c *ClusterOfDGX1) NumGPUs() int { return c.Cluster.Graph.NumNodes() }

// AllReduce runs a hierarchical cluster-wide AllReduce: chained composes
// the C-Cube observation across all three levels; otherwise the phases run
// barriered.
func (c *ClusterOfDGX1) AllReduce(bytes int64, chained bool) (*collective.Result, error) {
	return collective.RunHierarchical(context.TODO(), collective.HierarchicalConfig{
		Cluster: c.Cluster,
		Bytes:   bytes,
		Chained: chained,
	})
}

// Train simulates one cluster-wide training iteration. Supported modes:
// B, C2 (barriered hierarchy) and C1, CC (chained hierarchy).
func (c *ClusterOfDGX1) Train(opts TrainOptions) (*train.Result, error) {
	if opts.Mode == train.ModeR {
		return nil, fmt.Errorf("core: ring is not supported on a multi-node cluster")
	}
	return train.RunCtx(context.TODO(), train.Config{
		Model:   opts.Model,
		Batch:   opts.Batch,
		Device:  c.Device,
		Cluster: c.Cluster,
		Mode:    opts.Mode,
		Chunks:  opts.Chunks,
	})
}
