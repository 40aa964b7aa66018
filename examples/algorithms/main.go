// Algorithm tour: every AllReduce implementation in the library on the
// DGX-1, across the message-size spectrum, plus the simulated auto-tuner's
// pick at each size — the adaptation the paper's related work (Faraj & Yuan)
// calls for.
//
//	go run ./examples/algorithms
package main

import (
	"context"
	"fmt"
	"log"

	"ccube/internal/autotune"
	"ccube/internal/collective"
	"ccube/internal/core"
	"ccube/internal/report"
)

func main() {
	sys := core.DGX1(core.HighBandwidth)
	algs := []collective.Algorithm{
		collective.AlgRing,
		collective.AlgHalvingDoubling,
		collective.AlgTree,
		collective.AlgTreeOverlap,
		collective.AlgDoubleTree,
		collective.AlgDoubleTreeOverlap,
	}
	sizes := []int64{16 << 10, 1 << 20, 64 << 20}

	for _, n := range sizes {
		t := report.New(fmt.Sprintf("AllReduce of %s on the DGX-1", report.Bytes(n)),
			"algorithm", "total", "bandwidth", "turnaround", "in-order")
		for _, alg := range algs {
			res, err := sys.AllReduce(core.AllReduceOptions{Algorithm: alg, Bytes: n})
			if err != nil {
				log.Fatal(err)
			}
			t.AddRow(alg.String(), report.Time(res.Total), report.GBps(res.Bandwidth()),
				report.Time(res.Turnaround), fmt.Sprintf("%v", res.InOrder))
		}
		best, err := autotune.BestWith(context.Background(), sys.Graph, n, autotune.Options{Objective: autotune.Latency})
		if err != nil {
			log.Fatal(err)
		}
		t.AddNote("auto-tuner pick (latency objective): %s", best.Algorithm)
		fmt.Println(t.Render())
	}
	fmt.Println("in-order = chunks complete in index order at every GPU; only in-order")
	fmt.Println("algorithms can feed C-Cube's gradient queue (paper Observation #3).")
}
