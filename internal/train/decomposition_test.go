package train

import (
	"context"
	"fmt"
	"testing"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/dnn"
	"ccube/internal/fault"
	"ccube/internal/topology"
)

// standalone runs the mode's collective schedule on its own, the way
// RunCtx prepares it: built for the participants, repaired around the
// plan's static faults with the plan applied to the graph.
func standalone(t *testing.T, cfg Config) *collective.Result {
	t.Helper()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	nodes := cfg.Nodes
	if nodes == nil {
		nodes = cfg.Graph.GPUs()
	}
	sched, err := cfg.buildSchedule(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Faults.Empty() {
		revert := cfg.Faults.Apply(cfg.Graph)
		defer revert()
		if sched, _, err = collective.RepairSchedule(sched, cfg.Graph.DownChannels(), nil); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sched.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameDecomposition requires RunCtx's CommTime and Turnaround, read off the
// iteration's collective block, to equal a standalone run of the schedule.
func sameDecomposition(t *testing.T, name string, cfg Config) {
	t.Helper()
	want := standalone(t, cfg)
	got := run(t, cfg)
	if got.CommTime != want.Total || got.Turnaround != want.Turnaround {
		t.Errorf("%s: comm %v, turnaround %v; standalone %v, %v",
			name, got.CommTime, got.Turnaround, want.Total, want.Turnaround)
	}
}

// TestCommTimeMatchesStandaloneRun pins the one-run iteration to the
// standalone collective: the block's channels serve only the block, so the
// block is the standalone run shifted by the end of backward. It covers
// every mode of the four models at five batch sizes on both DGX-1
// fabrics, the hierarchical cluster path, and the three static fault
// kinds.
func TestCommTimeMatchesStandaloneRun(t *testing.T) {
	graphs := map[string]*topology.Graph{"dgx1": dgx1(), "dgx1-low": lowBW()}
	models := []dnn.Model{dnn.ZFNet(), dnn.VGG16(), dnn.ResNet50(), dnn.BERTBase()}
	configs := 0
	for gname, g := range graphs {
		for _, m := range models {
			for _, mode := range Modes() {
				for _, batch := range []int{1, 16, 64, 333, 512} {
					sameDecomposition(t, fmt.Sprintf("%s/%s/%s/b%d", gname, m.Name, mode, batch),
						Config{Model: m, Batch: batch, Graph: g, Mode: mode})
					configs++
				}
			}
		}
	}
	if configs != 200 {
		t.Fatalf("%d fault-free configs, want 200", configs)
	}

	for _, boxes := range []int{2, 4} {
		mn := testCluster(t, boxes)
		for _, mode := range []Mode{ModeB, ModeC1, ModeC2, ModeCC} {
			sameDecomposition(t, fmt.Sprintf("cluster%d/%s", boxes, mode),
				Config{Model: dnn.ResNet50(), Batch: 64, Cluster: mn, Mode: mode})
		}
	}

	for _, mode := range Modes() {
		cfg := Config{Model: dnn.ResNet50(), Batch: 64, Graph: dgx1(), Mode: mode}
		used := usedChannelFor(t, cfg)
		for kind, plan := range map[string]*fault.Plan{
			"degrade":  fault.NewPlan(fault.Event{Kind: fault.LinkDegrade, Channel: used, Factor: 8}),
			"dead":     fault.NewPlan(fault.Event{Kind: fault.LinkDown, Channel: used}),
			"gpu-slow": fault.NewPlan(fault.Event{Kind: fault.GPUSlow, GPU: 3, Factor: 1.5}),
		} {
			cfg.Faults = plan
			sameDecomposition(t, fmt.Sprintf("%s/%s", kind, mode), cfg)
		}
	}
}

// bwdEnd returns when backward finished in an executed iteration: the
// collective's launch time.
func bwdEnd(t *testing.T, res *Result) des.Time {
	t.Helper()
	for id := 0; id < res.Graph.NumTasks(); id++ {
		if res.Graph.Label(id) == "bwd-done" {
			return res.Graph.End(id)
		}
	}
	t.Fatal("no bwd-done task")
	return 0
}

// TestTimedDegradeInsideCollectiveLengthensCommTime pins the one intended
// change of reading CommTime off the iteration's block: a LinkDegrade armed
// inside the collective's window now slows the collective it lands in.
// (A separate standalone run never armed timed events, so it reported the
// healthy time.) The block still equals a standalone run over resources
// armed at the same offset from the collective's launch.
func TestTimedDegradeInsideCollectiveLengthensCommTime(t *testing.T) {
	cfg := Config{Model: dnn.ResNet50(), Batch: 64, Graph: dgx1(), Mode: ModeB}
	healthy := run(t, cfg)
	launch := bwdEnd(t, healthy)
	used := usedChannelFor(t, cfg)
	const factor = 16
	offset := healthy.CommTime / 8
	cfg.Faults = fault.NewPlan(fault.Event{Kind: fault.LinkDegrade, Channel: used, At: launch + offset, Factor: factor})
	faulted := run(t, cfg)
	if faulted.CommTime <= healthy.CommTime {
		t.Fatalf("degrade armed at launch+%v: comm %v, healthy %v; want longer", offset, faulted.CommTime, healthy.CommTime)
	}

	sched, err := cfg.buildSchedule(cfg.Graph.GPUs())
	if err != nil {
		t.Fatal(err)
	}
	res := cfg.Graph.Resources()
	res[used].SetSlowdownAt(offset, factor)
	want, _, err := sched.ExecuteOnCtx(context.Background(), res)
	if err != nil {
		t.Fatal(err)
	}
	if faulted.CommTime != want.Total || faulted.Turnaround != want.Turnaround {
		t.Fatalf("comm %v, turnaround %v; shifted standalone run %v, %v",
			faulted.CommTime, faulted.Turnaround, want.Total, want.Turnaround)
	}
	t.Logf("ResNet-50 B, channel %d x%d at launch+%v: comm %v -> %v", used, factor, offset, healthy.CommTime, faulted.CommTime)
}

// TestIterationRunsCollectiveOnce: one iteration executes exactly its
// pipeline graph's tasks, so the collective runs once, as a block of it.
func TestIterationRunsCollectiveOnce(t *testing.T) {
	withMetrics(t)
	res := run(t, Config{Model: dnn.ResNet50(), Batch: 64, Graph: dgx1(), Mode: ModeCC})
	if got := snapshotValue(t, "des_tasks_executed_total"); got != float64(res.Graph.NumTasks()) {
		t.Fatalf("des executed %v tasks, iteration graph has %d", got, res.Graph.NumTasks())
	}
	if got := snapshotValue(t, "collective_executions_total"); got != 1 {
		t.Fatalf("collective_executions_total = %v, want 1", got)
	}
}
