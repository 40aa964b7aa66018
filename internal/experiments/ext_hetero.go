package experiments

import (
	"context"
	"fmt"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/report"
	"ccube/internal/sweep"
	"ccube/internal/topology"
)

// ExtHetero studies heterogeneous interconnect bandwidth (the paper's
// related work cites Themis on exactly this problem): one NVLink of the
// mesh-cube is degraded, and each algorithm's sensitivity is measured.
// Pipelined schedules bottleneck on their slowest hop, so the ring, the
// double tree, and C-Cube all slow down by roughly the degradation factor —
// the ring because every chunk traverses every link, the trees because the
// degraded pair carries tree edges. Halving-doubling is the least
// sensitive: the degraded channel serves only one of its log2(P) exchange
// dimensions, so only the blocks crossing that dimension stall.
func ExtHetero() ([]*report.Table, error) {
	t := report.New("Extension: sensitivity to one degraded link (GPU0-GPU1 at 1/4 bandwidth, 64MB)",
		"algorithm", "healthy", "degraded", "slowdown")
	algs := []collective.Algorithm{
		collective.AlgRing,
		collective.AlgHalvingDoubling,
		collective.AlgDoubleTree,
		collective.AlgDoubleTreeOverlap,
	}
	healthyG := dgx1()
	degradedG := degradedDGX1()
	// Both graphs are shared read-only across cells; one cell per algorithm,
	// rows assembled in algorithm order.
	type heteroRow struct{ healthy, degraded *collective.Result }
	rows, err := sweep.Grid(len(algs), Parallelism, func(i int) (heteroRow, error) {
		alg := algs[i]
		healthy, err := collective.RunCtx(context.TODO(), collective.Config{
			Graph: healthyG, Algorithm: alg, Bytes: 64 << 20})
		if err != nil {
			return heteroRow{}, fmt.Errorf("hetero healthy %v: %w", alg, err)
		}
		degraded, err := collective.RunCtx(context.TODO(), collective.Config{
			Graph: degradedG, Algorithm: alg, Bytes: 64 << 20})
		if err != nil {
			return heteroRow{}, fmt.Errorf("hetero degraded %v: %w", alg, err)
		}
		return heteroRow{healthy, degraded}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		t.AddRow(algs[i].String(), report.Time(r.healthy.Total), report.Time(r.degraded.Total),
			report.Ratio(float64(r.degraded.Total)/float64(r.healthy.Total)))
	}
	t.AddNote("a degraded link slows every schedule routed over it; pipelined schedules stall at the slow stage")
	return []*report.Table{t}, nil
}

// degradedDGX1 builds the mesh-cube with the first GPU0-GPU1 channel pair
// at a quarter of NVLink bandwidth (e.g. a failing retimer), second parallel
// channel intact.
func degradedDGX1() *topology.Graph {
	g := topology.NewGraph()
	for i := 0; i < 8; i++ {
		g.AddNode(fmt.Sprintf("GPU%d", i), topology.GPU)
	}
	links := []struct {
		a, b   int
		double bool
	}{
		{0, 1, true}, {0, 2, false}, {0, 3, false},
		{1, 2, false}, {1, 3, false}, {2, 3, true},
		{4, 5, true}, {4, 6, false}, {4, 7, false},
		{5, 6, false}, {5, 7, false}, {6, 7, true},
		{0, 4, true}, {1, 5, true}, {2, 6, true}, {3, 7, true},
	}
	lat := des.Time(topology.NVLinkLatency)
	for _, l := range links {
		bw := topology.NVLinkBandwidth
		if l.a == 0 && l.b == 1 {
			bw /= 4 // the degraded pair's first channel
		}
		g.AddBidi(topology.NodeID(l.a), topology.NodeID(l.b), bw, lat, "nvlink")
		if l.double {
			g.AddBidi(topology.NodeID(l.a), topology.NodeID(l.b),
				topology.NVLinkBandwidth, lat, "nvlink2")
		}
	}
	return g
}
