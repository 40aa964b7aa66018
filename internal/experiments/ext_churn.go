package experiments

import (
	"context"
	"fmt"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/fault"
	"ccube/internal/report"
	"ccube/internal/sweep"
	"ccube/internal/topology"
)

// ExtChurn puts the two fault-response modes under sustained link churn on
// scale-out fabrics: every epoch a seeded set of in-use physical links dies
// mid-collective, the run either adapts in place (the repair patches the
// unexecuted transfers, then checkpoint/resume) or relaunches from scratch
// (the same repair over the whole schedule), and the fabric then recovers
// exactly. The figure of merit is the throughput floor — the worst epoch a
// training job experiences — as a fraction of the healthy baseline.
// Adaptation keeps the already-executed prefix, so its floor should dominate
// relaunching at every grid point; the gap is widest with two failures per
// epoch and a short repair latency, where the forfeited prefix is a larger
// share of the epoch.
// extChurnRow is one rendered table row, computed inside a sweep cell.
type extChurnRow struct {
	nodes     int
	alg       string
	fails     int
	latency   string
	relFloor  string
	adpFloor  string
	floorGain string
	adpRecov  string
	adapted   int
	retries   int
}

// extChurnCell is one grid point of the churn sweep.
type extChurnCell struct {
	nodes   int
	alg     collective.Algorithm
	fails   int
	latency des.Time
}

// ChurnFloor holds both modes' churn reports for one configuration; the
// bench harness uses it to assert the adapt floor dominates.
type ChurnFloor struct {
	Nodes    int
	Alg      collective.Algorithm
	Fails    int
	Latency  des.Time
	Relaunch *fault.ChurnReport
	Adapt    *fault.ChurnReport
}

// RunChurnPoint runs one churn grid point in both modes on a private
// scale-out fabric. Shared between the experiment table and the bench
// harness's floor assertions.
func RunChurnPoint(nodes int, alg collective.Algorithm, fails int, latency des.Time) (*ChurnFloor, error) {
	hcfg := topology.DefaultHierarchyConfig(nodes)
	g := topology.Hierarchy(hcfg)
	cfg := collective.Config{Graph: g, Algorithm: alg, Bytes: 1 << 20}
	if alg == collective.AlgRing {
		identity := make([]int, nodes)
		for i := range identity {
			identity[i] = i
		}
		cfg.RingOrders = [][]int{identity, identity}
	} else {
		cfg.Chunks = 8
	}
	out := &ChurnFloor{Nodes: nodes, Alg: alg, Fails: fails, Latency: latency}
	for _, mode := range []fault.Mode{fault.ModeRelaunch, fault.ModeAdapt} {
		rep, err := fault.RunChurnCtx(context.TODO(), fault.ChurnConfig{
			Collective:    cfg,
			Seed:          7,
			Epochs:        3,
			FailLinks:     fails,
			RepairLatency: latency,
			Mode:          mode,
			UsedLinksOnly: true,
		})
		if err != nil {
			return nil, fmt.Errorf("churn P=%d %v fails=%d %v: %w", nodes, alg, fails, mode, err)
		}
		if mode == fault.ModeAdapt {
			out.Adapt = rep
		} else {
			out.Relaunch = rep
		}
	}
	return out, nil
}

func ExtChurn() ([]*report.Table, error) {
	var cells []extChurnCell
	for _, nodes := range []int{16, 64} {
		for _, alg := range []collective.Algorithm{
			collective.AlgRing,
			collective.AlgDoubleTree,
			collective.AlgDoubleTreeOverlap,
		} {
			for _, fails := range []int{1, 2} {
				for _, latency := range []des.Time{50 * des.Microsecond, 500 * des.Microsecond} {
					cells = append(cells, extChurnCell{nodes, alg, fails, latency})
				}
			}
		}
	}
	t := report.New("Extension: throughput floor under sustained link churn — adapt-in-place vs full relaunch (1MB, 3 epochs)",
		"nodes", "algorithm", "fails/epoch", "repair latency",
		"relaunch floor", "adapt floor", "adapt/relaunch", "adapt recovered BW", "adapted", "retries")
	// One sweep cell per grid point: churn mutates topology health, so every
	// cell builds a private Hierarchy fabric and runs both modes on it.
	rows, err := sweep.Grid(len(cells), Parallelism, func(i int) ([]extChurnRow, error) {
		c := cells[i]
		fl, err := RunChurnPoint(c.nodes, c.alg, c.fails, c.latency)
		if err != nil {
			return nil, err
		}
		gain := 0.0
		if fl.Relaunch.FloorThroughput > 0 {
			gain = fl.Adapt.FloorThroughput / fl.Relaunch.FloorThroughput
		}
		return []extChurnRow{{
			nodes: c.nodes, alg: c.alg.String(), fails: c.fails,
			latency:   report.Time(c.latency),
			relFloor:  report.GBps(fl.Relaunch.FloorThroughput),
			adpFloor:  report.GBps(fl.Adapt.FloorThroughput),
			floorGain: report.Ratio(gain),
			adpRecov:  report.Percent(fl.Adapt.RecoveredBandwidth()),
			adapted:   fl.Adapt.Adapted,
			retries:   fl.Adapt.Retries,
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, col := range rows {
		for _, r := range col {
			t.AddRow(fmt.Sprintf("%d", r.nodes), r.alg, fmt.Sprintf("%d", r.fails), r.latency,
				r.relFloor, r.adpFloor, r.floorGain, r.adpRecov,
				fmt.Sprintf("%d", r.adapted), fmt.Sprintf("%d", r.retries))
		}
	}
	t.AddNote("failures are drawn from links the schedule rides, so every epoch exercises the fault response")
	t.AddNote("adapt patches the unexecuted transfers and keeps the executed prefix; relaunch repairs the whole schedule and forfeits it — the adapt floor dominates, most with two fails per epoch at 50us repair latency")
	t.AddNote("fabric health is fingerprint-verified after every epoch: exact recovery is part of the contract")
	return []*report.Table{t}, nil
}
