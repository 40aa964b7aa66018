package experiments

import (
	"context"
	"fmt"

	"ccube/internal/dnn"
	"ccube/internal/report"
	"ccube/internal/train"
)

// Fig16 reproduces the communication/computation pattern study on synthetic
// 8-layer models with identical totals but different per-layer
// distributions:
//
//	Case 1 — compute shrinks / communication grows with layer index (the
//	         common CNN shape): clean chaining, no bubbles;
//	Case 2 — compute grows with layer index: forward bubbles appear;
//	Case 3 — communication concentrated in early layers: the first forward
//	         layer's gradients turn around late.
func Fig16() ([]*report.Table, error) {
	t := report.New("Fig 16: chaining behavior per communication/computation pattern (C-Cube, low bandwidth)",
		"case", "pattern", "efficiency", "first-forward wait", "forward bubbles")
	descs := map[dnn.PatternCase]string{
		dnn.Case1: "compute down, comm up (CNN-like)",
		dnn.Case2: "compute up with layer index",
		dnn.Case3: "comm concentrated early",
	}
	for _, c := range []dnn.PatternCase{dnn.Case1, dnn.Case2, dnn.Case3} {
		res, err := train.RunCtx(context.TODO(), train.Config{
			Model: dnn.SyntheticPattern(c), Batch: 64, Graph: dgx1Low(),
			Mode: train.ModeCC, Chunks: 64,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("case %d", int(c)),
			descs[c],
			report.Percent(res.Normalized),
			report.Time(res.FirstForwardWait),
			report.Time(res.Bubbles),
		)
	}
	t.AddNote("paper: case 1 chains cleanly; case 2 develops bubbles; case 3 delays turnaround")
	return []*report.Table{t}, nil
}
