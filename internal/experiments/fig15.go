package experiments

import (
	"context"
	"fmt"

	"ccube/internal/dnn"
	"ccube/internal/report"
	"ccube/internal/train"
)

// Fig15 reproduces the detour-overhead study: per-GPU normalized
// performance (inverse iteration time, normalized to the fastest GPU) under
// C-Cube at batch 64 with high bandwidth. GPU0 and GPU1 run the static
// detour-forwarding kernels. Paper headline: detour nodes lose only 3-4%.
func Fig15() ([]*report.Table, error) {
	res, err := train.RunCtx(context.TODO(), train.Config{
		Model: dnn.ResNet50(), Batch: 64, Graph: dgx1(), Mode: train.ModeCC,
	})
	if err != nil {
		return nil, err
	}
	var best float64
	for _, tm := range res.PerGPU {
		perf := 1 / float64(tm)
		if perf > best {
			best = perf
		}
	}
	t := report.New("Fig 15: per-GPU normalized performance under C-Cube (ResNet-50, batch 64, high bandwidth)",
		"gpu", "role", "iteration time", "normalized performance")
	var worstDetour float64 = 1
	for i, tm := range res.PerGPU {
		role := "compute"
		if i <= 1 {
			role = "detour forwarding"
		}
		norm := (1 / float64(tm)) / best
		if i <= 1 && norm < worstDetour {
			worstDetour = norm
		}
		t.AddRow(fmt.Sprintf("GPU%d", i), role, report.Time(tm), report.F2(norm))
	}
	t.AddNote("detour-node loss: %s (paper: 3-4%%)", report.Percent(1-worstDetour))
	return []*report.Table{t}, nil
}
