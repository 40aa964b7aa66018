// Multi-node hierarchical C-Cube: composing the paper's chaining across a
// cluster of DGX-1 boxes. A cluster AllReduce runs three tree phases —
// intra-box reduce, inter-box AllReduce over the fabric, intra-box
// broadcast. Barriers between phases waste the fabric while boxes reduce
// and the NVLinks while the fabric runs; chunk-level chaining (the C-Cube
// observation applied recursively) keeps all levels busy at once.
//
//	go run ./examples/multinode
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
	const boxes = 4
	t := report.New(
		fmt.Sprintf("Hierarchical AllReduce over %d DGX-1 boxes (%d GPUs)", boxes, boxes*8),
		"size", "barriered", "chained", "speedup", "chained turnaround")
	for _, mb := range []int64{16, 64, 256} {
		bytes := mb << 20
		base := runOne(bytes, false)
		chained := runOne(bytes, true)
		t.AddRow(
			report.Bytes(bytes),
			report.Time(base.Total),
			report.Time(chained.Total),
			report.Ratio(float64(base.Total)/float64(chained.Total)),
			report.Time(chained.Turnaround),
		)
	}
	t.AddNote("barriered: each phase drains before the next starts")
	t.AddNote("chained: every chunk climbs box tree -> fabric tree -> descends independently")
	fmt.Println(t.Render())
}

func runOne(bytes int64, chained bool) *collective.Result {
	mn, err := topology.BuildMultiNode(topology.DefaultMultiNodeConfig(4))
	if err != nil {
		log.Fatal(err)
	}
	res, err := collective.RunHierarchical(context.Background(), collective.HierarchicalConfig{
		Cluster: mn,
		Bytes:   bytes,
		Chained: chained,
	})
	if err != nil {
		log.Fatal(err)
	}
	return res
}
