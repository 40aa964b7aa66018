package experiments

import (
	"context"
	"fmt"

	"ccube/internal/collective"
	"ccube/internal/dnn"
	"ccube/internal/report"
	"ccube/internal/topology"
	"ccube/internal/train"
)

// ExtHierarchical is an extension beyond the paper: composing C-Cube's
// chaining across a multi-node cluster. A hierarchical AllReduce runs three
// tree phases (intra-node reduce, inter-node AllReduce over the fabric,
// intra-node broadcast); the tree's in-order property lets each chunk flow
// through all three levels without waiting for phase boundaries — the same
// observation the paper applies inside one box, applied recursively.
func ExtHierarchical() ([]*report.Table, error) {
	t := report.New("Extension: hierarchical C-Cube across DGX-1 boxes (64MB)",
		"boxes", "barriered", "chained", "speedup", "turnaround (barriered)", "turnaround (chained)")
	for _, boxes := range []int{2, 4, 8} {
		mn, err := topology.BuildMultiNode(topology.DefaultMultiNodeConfig(boxes))
		if err != nil {
			return nil, err
		}
		base, err := collective.RunHierarchical(context.TODO(), collective.HierarchicalConfig{
			Cluster: mn, Bytes: 64 << 20, Chained: false,
		})
		if err != nil {
			return nil, fmt.Errorf("hier %d boxes barriered: %w", boxes, err)
		}
		mn2, err := topology.BuildMultiNode(topology.DefaultMultiNodeConfig(boxes))
		if err != nil {
			return nil, err
		}
		chained, err := collective.RunHierarchical(context.TODO(), collective.HierarchicalConfig{
			Cluster: mn2, Bytes: 64 << 20, Chained: true,
		})
		if err != nil {
			return nil, fmt.Errorf("hier %d boxes chained: %w", boxes, err)
		}
		t.AddRow(
			fmt.Sprintf("%d", boxes),
			report.Time(base.Total),
			report.Time(chained.Total),
			report.Ratio(float64(base.Total)/float64(chained.Total)),
			report.Time(base.Turnaround),
			report.Time(chained.Turnaround),
		)
	}
	t.AddNote("chaining composes across levels: a chunk climbs box tree -> fabric tree -> descends, never waiting for a phase to drain")

	// End-to-end training on the cluster: the fabric is an order of
	// magnitude slower than NVLink, so hierarchical chaining decides
	// whether the cluster scales.
	tt := report.New("Extension: ResNet-50 training across 4 DGX-1 boxes (batch 64/GPU, 32-way data parallel)",
		"mode", "iteration", "normalized perf")
	mn, err := topology.BuildMultiNode(topology.DefaultMultiNodeConfig(4))
	if err != nil {
		return nil, err
	}
	for _, m := range []train.Mode{train.ModeB, train.ModeC1, train.ModeC2, train.ModeCC} {
		res, err := train.RunCtx(context.TODO(), train.Config{
			Model: dnn.ResNet50(), Batch: 64, Cluster: mn, Mode: m,
		})
		if err != nil {
			return nil, fmt.Errorf("hier train %s: %w", m, err)
		}
		tt.AddRow(string(m), report.Time(res.IterTime), report.F2(res.Normalized))
	}
	tt.AddNote("B/C2 run the hierarchy phase-barriered; C1/CC chain chunks through all three levels")
	return []*report.Table{t, tt}, nil
}
