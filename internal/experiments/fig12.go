package experiments

import (
	"ccube/internal/collective"
	"ccube/internal/costmodel"
	"ccube/internal/report"
	"ccube/internal/topology"
	"context"
)

// fig12Sizes are the message sizes of the DGX-1 communication study.
var fig12Sizes = []int64{16 << 20, 64 << 20, 128 << 20, 256 << 20, 512 << 20}

// Fig12a reproduces the DGX-1 communication comparison: baseline double
// tree (B) vs overlapped double tree (C1) as data size grows. Paper
// headline: C1 exceeds B by 75% at 64MB, up to 80% at larger sizes.
func Fig12a() ([]*report.Table, error) {
	g := dgx1()
	t := report.New("Fig 12(a): overlapped tree (C1) vs baseline tree (B) on DGX-1",
		"size", "B time", "C1 time", "B bandwidth", "C1 bandwidth", "C1 speedup")
	for _, n := range fig12Sizes {
		base, err := collective.RunCtx(context.TODO(), collective.Config{Graph: g, Algorithm: collective.AlgDoubleTree, Bytes: n})
		if err != nil {
			return nil, err
		}
		over, err := collective.RunCtx(context.TODO(), collective.Config{Graph: g, Algorithm: collective.AlgDoubleTreeOverlap,
			Bytes: n, Chunks: base.Partition.NumChunks()})
		if err != nil {
			return nil, err
		}
		t.AddRow(
			report.Bytes(n),
			report.Time(base.Total),
			report.Time(over.Total),
			report.GBps(base.Bandwidth()),
			report.GBps(over.Bandwidth()),
			report.Ratio(float64(base.Total)/float64(over.Total)),
		)
	}
	t.AddNote("paper: +75%% at 64MB, up to +80%% at larger sizes")
	return []*report.Table{t}, nil
}

// Fig12b compares the measured C1/B speedup against the alpha-beta model
// (Eq. 6 over Eq. 7). Paper headline: model closely matches the real-system
// measurement.
func Fig12b() ([]*report.Table, error) {
	g := dgx1()
	t := report.New("Fig 12(b): measured C1/B speedup vs cost model",
		"size", "measured", "model (Eq6/Eq7)", "relative error")
	for _, n := range fig12Sizes {
		base, err := collective.RunCtx(context.TODO(), collective.Config{Graph: g, Algorithm: collective.AlgDoubleTree, Bytes: n})
		if err != nil {
			return nil, err
		}
		over, err := collective.RunCtx(context.TODO(), collective.Config{Graph: g, Algorithm: collective.AlgDoubleTreeOverlap,
			Bytes: n, Chunks: base.Partition.NumChunks()})
		if err != nil {
			return nil, err
		}
		measured := float64(base.Total) / float64(over.Total)
		// The double tree carries N/2 per tree over P=8 nodes.
		p := costmodel.Params{
			Alpha: topology.NVLinkLatency.Seconds(),
			Beta:  1 / topology.NVLinkBandwidth,
			P:     8,
			N:     float64(n) / 2,
		}
		model := costmodel.SpeedupOverlappedVsTree(p)
		rel := (measured - model) / model
		if rel < 0 {
			rel = -rel
		}
		t.AddRow(report.Bytes(n), report.Ratio(measured), report.Ratio(model), report.Percent(rel))
	}
	t.AddNote("paper: modeling closely matches measurement on the 8-GPU system")
	return []*report.Table{t}, nil
}
