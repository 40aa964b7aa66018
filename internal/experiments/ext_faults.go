package experiments

import (
	"context"
	"fmt"

	"ccube/internal/collective"
	"ccube/internal/fault"
	"ccube/internal/report"
	"ccube/internal/sweep"
)

// ExtFaults measures degradation under link failures (framed like the
// paper's Fig. 15 overhead study): n random NVLinks are killed, every
// schedule is statically repaired around them — parallel channel first, then
// a one-GPU detour, the paper's §IV-A forwarding mechanism — and the
// repaired collective's makespan is compared against the healthy fabric.
// Reroutes funnel traffic onto surviving links, so perf degrades smoothly
// with the failure count instead of falling off a cliff; the double tree is
// the most exposed because every killed tree edge adds a two-hop detour to a
// pipelined critical path.
// extFaultRow is one rendered table row, computed inside a sweep cell.
type extFaultRow struct {
	alg      string
	failed   int
	makespan string
	slowdown string
	rerouted int
}

func ExtFaults() ([]*report.Table, error) {
	const bytes = 64 << 20
	const seed = 1
	algs := []collective.Algorithm{
		collective.AlgRing,
		collective.AlgHalvingDoubling,
		collective.AlgDoubleTree,
		collective.AlgDoubleTreeOverlap,
	}
	t := report.New("Extension: perf loss vs number of failed links (random kills, repaired schedules, 64MB)",
		"algorithm", "failed links", "makespan", "slowdown", "rerouted transfers")
	// One sweep cell per algorithm: fault plans mutate the graph's health
	// state, so every cell builds a private dgx1() and runs its whole
	// healthy-plus-failures column on it. Rows land in algorithm order.
	rows, err := sweep.Grid(len(algs), Parallelism, func(i int) ([]extFaultRow, error) {
		alg := algs[i]
		g := dgx1()
		healthy, _, err := fault.RunCollectiveCtx(context.TODO(), collective.Config{
			Graph: g, Algorithm: alg, Bytes: bytes}, nil)
		if err != nil {
			return nil, fmt.Errorf("faults healthy %v: %w", alg, err)
		}
		var out []extFaultRow
		for failed := 0; failed <= 3; failed++ {
			plan := fault.RandomLinkFailures(g, seed, failed)
			res, rep, err := fault.RunCollectiveCtx(context.TODO(), collective.Config{
				Graph: g, Algorithm: alg, Bytes: bytes}, plan)
			if err != nil {
				return nil, fmt.Errorf("faults %v n=%d: %w", alg, failed, err)
			}
			out = append(out, extFaultRow{
				alg: alg.String(), failed: failed, makespan: report.Time(res.Total),
				slowdown: report.Ratio(float64(res.Total) / float64(healthy.Total)),
				rerouted: rep.Rerouted(),
			})
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for _, col := range rows {
		for _, r := range col {
			t.AddRow(r.alg, fmt.Sprintf("%d", r.failed), r.makespan, r.slowdown,
				fmt.Sprintf("%d", r.rerouted))
		}
	}
	t.AddNote("dead links repaired statically: parallel channel when one survives, else a one-GPU detour (§IV-A)")
	t.AddNote("slowdown is graceful because repaired flows share surviving links; contention is simulated, not assumed")
	return []*report.Table{t}, nil
}
