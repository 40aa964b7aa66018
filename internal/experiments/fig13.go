package experiments

import (
	"context"
	"fmt"

	"ccube/internal/dnn"
	"ccube/internal/report"
	"ccube/internal/sweep"
	"ccube/internal/topology"
	"ccube/internal/train"
)

// fig13Batches are the per-GPU batch sizes of the training study.
var fig13Batches = []int{16, 32, 64}

// Fig13Cell is one (model, batch, bandwidth, mode) measurement.
type Fig13Cell struct {
	Model     string
	Batch     int
	Bandwidth string // "low" or "high"
	Mode      train.Mode
	Result    *train.Result
}

// fig13Point is one grid coordinate, enumerated up front so the sweep can
// fan cells across workers while preserving the serial bw → model → batch →
// mode order in the output.
type fig13Point struct {
	bw    string
	graph *topology.Graph
	model dnn.Model
	batch int
	mode  train.Mode
}

func fig13Grid() []fig13Point {
	graphs := map[string]*topology.Graph{"low": dgx1Low(), "high": dgx1()}
	var pts []fig13Point
	for _, bw := range []string{"low", "high"} {
		for _, model := range dnn.EvaluationModels() {
			for _, batch := range fig13Batches {
				for _, mode := range train.Modes() {
					pts = append(pts, fig13Point{bw, graphs[bw], model, batch, mode})
				}
			}
		}
	}
	return pts
}

// runFig13Grid evaluates the given points on up to workers goroutines. The
// two graphs are shared across cells but only read; schedules come from the
// mutex-guarded collective cache and execute on per-cell resources, so any
// worker count produces bit-identical cells (see TestFig13ParallelMatchesSerial).
func runFig13Grid(pts []fig13Point, workers int) ([]Fig13Cell, error) {
	return sweep.Grid(len(pts), workers, func(i int) (Fig13Cell, error) {
		p := pts[i]
		res, err := train.RunCtx(context.TODO(), train.Config{
			Model: p.model, Batch: p.batch, Graph: p.graph, Mode: p.mode,
		})
		if err != nil {
			return Fig13Cell{}, fmt.Errorf("fig13 %s b%d %s %s: %w", p.model.Name, p.batch, p.bw, p.mode, err)
		}
		return Fig13Cell{
			Model: p.model.Name, Batch: p.batch, Bandwidth: p.bw, Mode: p.mode, Result: res,
		}, nil
	})
}

// Fig13Sweep runs the full training grid and returns every cell.
func Fig13Sweep() ([]Fig13Cell, error) {
	return runFig13Grid(fig13Grid(), Parallelism)
}

// Fig13 reproduces the normalized-performance grid (Fig. 13) plus the
// paper's §V-B2 summary aggregates: C1 ~10% avg (up to 20%) over B, CC ~32%
// avg (up to 61%) over B, CC up to 31% over R, peak efficiency ~98%.
func Fig13() ([]*report.Table, error) {
	cells, err := Fig13Sweep()
	if err != nil {
		return nil, err
	}

	grid := report.New("Fig 13: normalized performance (1.0 = ideal linear speedup)",
		"bandwidth", "model", "batch", "B", "C1", "C2", "R", "CC")
	type key struct {
		bw, model string
		batch     int
	}
	rows := map[key]map[train.Mode]*train.Result{}
	var order []key
	for _, c := range cells {
		k := key{c.Bandwidth, c.Model, c.Batch}
		if rows[k] == nil {
			rows[k] = map[train.Mode]*train.Result{}
			order = append(order, k)
		}
		rows[k][c.Mode] = c.Result
	}
	for _, k := range order {
		r := rows[k]
		grid.AddRow(k.bw, k.model, fmt.Sprintf("%d", k.batch),
			report.F2(r[train.ModeB].Normalized),
			report.F2(r[train.ModeC1].Normalized),
			report.F2(r[train.ModeC2].Normalized),
			report.F2(r[train.ModeR].Normalized),
			report.F2(r[train.ModeCC].Normalized),
		)
	}

	summary := report.New("Fig 13 summary: speedups over baselines",
		"comparison", "average", "maximum", "paper")
	avgMax := func(num, den train.Mode) (avg, max float64) {
		var sum float64
		n := 0
		for _, k := range order {
			s := float64(rows[k][den].IterTime) / float64(rows[k][num].IterTime)
			sum += s
			if s > max {
				max = s
			}
			n++
		}
		return sum / float64(n), max
	}
	for _, cmp := range []struct {
		name     string
		num, den train.Mode
		paper    string
	}{
		{"C1 vs B", train.ModeC1, train.ModeB, "+10% avg, +20% max"},
		{"C2 vs B", train.ModeC2, train.ModeB, "slightly above C1"},
		{"CC vs B", train.ModeCC, train.ModeB, "+32% avg, +61% max"},
		{"CC vs R", train.ModeCC, train.ModeR, "up to +31%"},
	} {
		avg, max := avgMax(cmp.num, cmp.den)
		summary.AddRow(cmp.name,
			report.Percent(avg-1), report.Percent(max-1), cmp.paper)
	}
	var peak float64
	for _, k := range order {
		if e := rows[k][train.ModeCC].Normalized; e > peak {
			peak = e
		}
	}
	summary.AddNote("peak CC efficiency: %s (paper: up to 98%%)", report.Percent(peak))
	return []*report.Table{grid, summary}, nil
}
