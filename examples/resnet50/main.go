// ResNet-50 training study: the paper's Fig. 13 scenario for one model —
// simulate a steady-state data-parallel iteration on the DGX-1 in every
// configuration (B, C1, C2, R, CC) across batch sizes and both interconnect
// bandwidths, and report normalized performance (1.0 = linear speedup).
//
//	go run ./examples/resnet50
package main

import (
	"context"
	"fmt"
	"log"

	"ccube/internal/dnn"
	"ccube/internal/report"
	"ccube/internal/topology"
	"ccube/internal/train"
)

// dgx1 builds the DGX-1 at full NVLink bandwidth, or at the paper's low
// setting (NVLink divided by 4), and names it.
func dgx1(low bool) (*topology.Graph, string) {
	cfg := topology.DefaultDGX1Config()
	cfg.LowBandwidth = low
	if low {
		return topology.DGX1(cfg), "dgx1-low"
	}
	return topology.DGX1(cfg), "dgx1-high"
}

// iteration simulates one steady-state training iteration of model on g.
func iteration(g *topology.Graph, model dnn.Model, batch int, mode train.Mode) *train.Result {
	res, err := train.RunCtx(context.Background(), train.Config{
		Model: model, Batch: batch, Device: dnn.V100(), Graph: g, Mode: mode})
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	model := dnn.ResNet50()
	fmt.Printf("%s: %d layers, %.1fM parameters, %s gradients per iteration\n\n",
		model.Name, model.NumLayers(),
		float64(model.TotalParams())/1e6, report.Bytes(model.GradientBytes()))

	for _, low := range []bool{true, false} {
		g, name := dgx1(low)
		t := report.New(
			fmt.Sprintf("ResNet-50 normalized performance on %s", name),
			"batch", "B", "C1", "C2", "R", "CC", "CC vs B")
		for _, batch := range []int{16, 32, 64} {
			results := make(map[train.Mode]*train.Result)
			for _, m := range train.Modes() {
				results[m] = iteration(g, model, batch, m)
			}
			t.AddRow(
				fmt.Sprintf("%d", batch),
				report.F2(results[train.ModeB].Normalized),
				report.F2(results[train.ModeC1].Normalized),
				report.F2(results[train.ModeC2].Normalized),
				report.F2(results[train.ModeR].Normalized),
				report.F2(results[train.ModeCC].Normalized),
				report.Ratio(float64(results[train.ModeB].IterTime)/float64(results[train.ModeCC].IterTime)),
			)
		}
		fmt.Println(t.Render())
	}

	// Decompose where C-Cube's win comes from at the most communication-
	// bound point of the sweep.
	g, _ := dgx1(true)
	cc := iteration(g, model, 16, train.ModeCC)
	b := iteration(g, model, 16, train.ModeB)
	fmt.Printf("decomposition at batch 16, low bandwidth:\n")
	fmt.Printf("  standalone AllReduce:  B %v -> CC %v (overlapped tree)\n", b.CommTime, cc.CommTime)
	fmt.Printf("  first-forward stall:   B %v -> CC %v (gradient queuing)\n", b.FirstForwardWait, cc.FirstForwardWait)
	fmt.Printf("  iteration:             B %v -> CC %v\n", b.IterTime, cc.IterTime)
}
