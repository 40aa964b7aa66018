package experiments

import (
	"context"
	"fmt"

	"ccube/internal/dnn"
	"ccube/internal/report"
	"ccube/internal/train"
)

// ExtTransformer is an extension beyond the paper's CNN-only evaluation:
// C-Cube on a BERT-Base transformer. Transformers invert part of the CNN
// story — the embedding table is the *first* layer the next iteration's
// forward pass needs, yet it carries the single largest gradient block at
// nearly zero compute: exactly the paper's Case-3 hazard (Fig. 16). The
// uniform encoder blocks behind it chain cleanly, so C-Cube still wins, but
// the first-forward wait is a visibly larger share than on ResNet-50.
func ExtTransformer() ([]*report.Table, error) {
	t := report.New("Extension: C-Cube on BERT-Base (batch 32/GPU, 8-GPU DGX-1)",
		"bandwidth", "mode", "iteration", "normalized perf", "first fwd wait")
	for _, bw := range []string{"low", "high"} {
		g := dgx1()
		if bw == "low" {
			g = dgx1Low()
		}
		for _, m := range train.Modes() {
			res, err := train.RunCtx(context.TODO(), train.Config{
				Model: dnn.BERTBase(), Batch: 32, Graph: g, Mode: m,
			})
			if err != nil {
				return nil, fmt.Errorf("bert %s %s: %w", bw, m, err)
			}
			t.AddRow(bw, string(m), report.Time(res.IterTime),
				report.F2(res.Normalized), report.Time(res.FirstForwardWait))
		}
	}

	// Quantify the Case-3 hazard: compare the share of the standalone
	// AllReduce that the first forward layer waits for.
	cmp := report.New("Case-3 hazard: first-forward wait as a share of AllReduce time (CC, low bandwidth)",
		"model", "first fwd wait", "comm time", "share")
	for _, model := range []dnn.Model{dnn.ResNet50(), dnn.BERTBase()} {
		res, err := train.RunCtx(context.TODO(), train.Config{
			Model: model, Batch: 32, Graph: dgx1Low(), Mode: train.ModeCC,
		})
		if err != nil {
			return nil, err
		}
		cmp.AddRow(model.Name, report.Time(res.FirstForwardWait), report.Time(res.CommTime),
			report.Percent(float64(res.FirstForwardWait)/float64(res.CommTime)))
	}
	cmp.AddNote("BERT's embedding gradients (first dequeued, ~22%% of bytes) push the first forward step back")
	return []*report.Table{t, cmp}, nil
}
