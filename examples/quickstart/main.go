// Quickstart: run the paper's headline comparison in a few lines — the
// baseline double-tree AllReduce (B) versus the overlapped C-Cube double
// tree (C1) on the 8-GPU DGX-1 model — and print the speedup.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"ccube/internal/collective"
	"ccube/internal/report"
	"ccube/internal/topology"
)

func main() {
	ctx := context.Background()
	g := topology.DGX1(topology.DefaultDGX1Config())

	t := report.New("Quickstart: baseline vs C-Cube AllReduce on the DGX-1",
		"size", "baseline (B)", "C-Cube (C1)", "speedup", "turnaround speedup")
	for _, mb := range []int64{16, 64, 256} {
		bytes := mb << 20
		base, err := collective.RunCtx(ctx, collective.Config{Graph: g, Algorithm: collective.AlgDoubleTree, Bytes: bytes})
		if err != nil {
			log.Fatal(err)
		}
		over, err := collective.RunCtx(ctx, collective.Config{Graph: g, Algorithm: collective.AlgDoubleTreeOverlap, Bytes: bytes})
		if err != nil {
			log.Fatal(err)
		}
		t.AddRow(
			report.Bytes(bytes),
			report.Time(base.Total),
			report.Time(over.Total),
			report.Ratio(float64(base.Total)/float64(over.Total)),
			report.Ratio(float64(base.Turnaround)/float64(over.Turnaround)),
		)
	}
	t.AddNote("overlapping reduction with broadcast chains the two phases over idle link directions")
	fmt.Println(t.Render())
}
