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

// ExtAblation consolidates the design-choice ablations of DESIGN.md §5 into
// one regenerable table: what each ingredient of C-Cube buys, measured by
// removing it.
func ExtAblation() ([]*report.Table, error) {
	t := report.New("Extension: design-choice ablations",
		"ablation", "variant", "metric", "value")

	// 1. Chunk count: Eq. 4 optimum vs fixed choices (64MB C-Cube comm).
	opt, err := collective.RunCtx(context.TODO(), collective.Config{
		Graph: dgx1(), Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 64 << 20})
	if err != nil {
		return nil, err
	}
	t.AddRow("chunk count", fmt.Sprintf("K_opt = %d", opt.Partition.NumChunks()),
		"AllReduce time", report.Time(opt.Total))
	for _, k := range []int{2, 8, 512} {
		res, err := collective.RunCtx(context.TODO(), collective.Config{
			Graph: dgx1(), Algorithm: collective.AlgDoubleTreeOverlap,
			Bytes: 64 << 20, Chunks: k})
		if err != nil {
			return nil, err
		}
		t.AddRow("chunk count", fmt.Sprintf("fixed K = %d", k),
			"AllReduce time", fmt.Sprintf("%v (%s)", res.Total,
				report.Ratio(float64(res.Total)/float64(opt.Total))))
	}

	// 2. Detour vs host PCIe path, per 1MB hop on a missing edge.
	cfg := topology.DefaultDGX1Config()
	cfg.IncludePCIe = true
	gp := topology.DGX1(cfg)
	nv := gp.Channel(gp.ChannelsBetween(2, 0)[0])
	pcie := gp.Channel(gp.ChannelsBetween(2, 4)[0])
	detourCost := 2 * nv.TransferTime(1<<20)
	hostCost := pcie.TransferTime(1 << 20)
	t.AddRow("missing edge GPU2-GPU4", "NVLink detour via GPU0", "1MB hop", report.Time(detourCost))
	t.AddRow("missing edge GPU2-GPU4", "host PCIe path", "1MB hop",
		fmt.Sprintf("%v (%s worse)", hostCost, report.Ratio(float64(hostCost)/float64(detourCost))))

	// 3. Single overlapped tree (Fig. 6(c)) vs C-Cube double tree (Fig. 6(d)).
	single, err := collective.RunCtx(context.TODO(), collective.Config{
		Graph: dgx1(), Algorithm: collective.AlgTreeOverlap, Bytes: 64 << 20})
	if err != nil {
		return nil, err
	}
	t.AddRow("tree organization", "single overlapped tree", "AllReduce time", report.Time(single.Total))
	t.AddRow("tree organization", "C-Cube double tree", "AllReduce time",
		fmt.Sprintf("%v (%s faster)", opt.Total, report.Ratio(float64(single.Total)/float64(opt.Total))))

	// 4. Forward-overlap (C-Cube) vs backward-overlap (DDP buckets).
	ddp, err := train.RunBackwardOverlapCtx(context.TODO(), train.Config{
		Model: dnn.VGG16(), Batch: 32, Graph: dgx1Low()})
	if err != nil {
		return nil, err
	}
	cc, err := train.RunCtx(context.TODO(), train.Config{
		Model: dnn.VGG16(), Batch: 32, Graph: dgx1Low(), Mode: train.ModeCC})
	if err != nil {
		return nil, err
	}
	t.AddRow("overlap direction", "backward (DDP buckets)", "iteration", report.Time(ddp.IterTime))
	t.AddRow("overlap direction", "forward (C-Cube)", "iteration",
		fmt.Sprintf("%v (%s faster)", cc.IterTime, report.Ratio(float64(ddp.IterTime)/float64(cc.IterTime))))

	// 5. Dedicated vs shared channels for the overlapped double tree.
	shared, err := sharedChannelOverlap()
	if err != nil {
		return nil, err
	}
	t.AddRow("channel assignment", "duplicated NVLink pairs (dedicated)", "overlap speedup over B",
		report.Ratio(dedicatedOverlapSpeedup(opt)))
	t.AddRow("channel assignment", "single links (forced sharing)", "overlap speedup over B",
		report.Ratio(shared))
	t.AddNote("each row removes one design ingredient; values regenerate deterministically")
	return []*report.Table{t}, nil
}

func dedicatedOverlapSpeedup(over *collective.Result) float64 {
	base, err := collective.RunCtx(context.TODO(), collective.Config{
		Graph: dgx1(), Algorithm: collective.AlgDoubleTree, Bytes: 64 << 20})
	if err != nil {
		return 0
	}
	return float64(base.Total) / float64(over.Total)
}

// sharedChannelOverlap measures the overlap benefit when the two trees must
// share channels (a single-link mesh-cube), demonstrating the paper's
// §III-B impossibility argument.
func sharedChannelOverlap() (float64, error) {
	g := topology.NewGraph()
	for i := 0; i < 8; i++ {
		g.AddNode(fmt.Sprintf("G%d", i), topology.GPU)
	}
	links := [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
		{4, 5}, {4, 6}, {4, 7}, {5, 6}, {5, 7}, {6, 7},
		{0, 4}, {1, 5}, {2, 6}, {3, 7},
	}
	for _, l := range links {
		g.AddBidi(topology.NodeID(l[0]), topology.NodeID(l[1]),
			topology.NVLinkBandwidth, topology.NVLinkLatency, "nvlink")
	}
	t1, t2 := collective.DGX1Trees()
	base, err := collective.RunCtx(context.TODO(), collective.Config{
		Graph: g, Algorithm: collective.AlgDoubleTree, Bytes: 64 << 20,
		Trees: []collective.Tree{t1, t2}, AllowSharedChannels: true})
	if err != nil {
		return 0, err
	}
	over, err := collective.RunCtx(context.TODO(), collective.Config{
		Graph: g, Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 64 << 20,
		Trees: []collective.Tree{t1, t2}, AllowSharedChannels: true})
	if err != nil {
		return 0, err
	}
	return float64(base.Total) / float64(over.Total), nil
}
