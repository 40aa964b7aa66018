package bench

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"ccube/internal/des"
)

// TestBudgetsCoverKnownBenches keeps the budget table honest: every override
// must name a real benchmark, so a rename can't silently un-gate a bench
// (anything unnamed falls back to the zero-alloc default), and every gated
// real-layer bench must carry an explicit budget.
func TestBudgetsCoverKnownBenches(t *testing.T) {
	names := map[string]bool{}
	for _, bm := range benchmarks() {
		names[bm.name] = true
		if _, ok := Budgets[bm.name]; bm.gated && !ok {
			t.Errorf("gated bench %q has no explicit Budgets entry", bm.name)
		}
	}
	for name := range Budgets {
		if !names[name] {
			t.Errorf("Budgets entry %q does not match any benchmark", name)
		}
	}
}

// TestRealLayerBenchesDoWork runs one op of every gated bench and checks it
// succeeds, so the gate can never time a setup that failed or an op that
// errors out early.
func TestRealLayerBenchesDoWork(t *testing.T) {
	for _, bm := range benchmarks() {
		if !bm.gated {
			continue
		}
		op, err := bm.setup()
		if err != nil {
			t.Fatalf("%s setup: %v", bm.name, err)
		}
		if err := op(); err != nil {
			t.Errorf("%s op: %v", bm.name, err)
		}
	}
}

// TestAllocCountsRepeat pins what lets Budgets hold allocs/op exactly: two
// counts of the same bench agree, however many collections ran before.
func TestAllocCountsRepeat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects at random under -race")
	}
	for _, bm := range benchmarks() {
		op, err := bm.setup()
		if err != nil {
			t.Fatalf("%s setup: %v", bm.name, err)
		}
		var first, second Result
		if err := countAllocs(op, &first); err != nil {
			t.Fatalf("%s: %v", bm.name, err)
		}
		runtime.GC()
		runtime.GC() // empty every sync.Pool, victims included
		if err := countAllocs(op, &second); err != nil {
			t.Fatalf("%s: %v", bm.name, err)
		}
		if first.AllocsPerOp != second.AllocsPerOp || first.BytesPerOp != second.BytesPerOp {
			t.Errorf("%s: counted %d allocs/op (%d B/op), then %d (%d B/op)", bm.name,
				first.AllocsPerOp, first.BytesPerOp, second.AllocsPerOp, second.BytesPerOp)
		}
	}
}

// TestEncoderBenchFixturesAllocFree pins the exact bodies the ServeEncode*
// benches time: once the buffer is warm, encoding a full plan or simulate
// response must not allocate.
func TestEncoderBenchFixturesAllocFree(t *testing.T) {
	plan := PlanFixture()
	sim := SimulateFixture()
	buf := sim.AppendJSON(plan.AppendJSON(nil))
	if allocs := testing.AllocsPerRun(50, func() {
		buf = plan.AppendJSON(buf[:0])
	}); allocs != 0 {
		t.Errorf("plan encode: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		buf = sim.AppendJSON(buf[:0])
	}); allocs != 0 {
		t.Errorf("simulate encode: %v allocs/op, want 0", allocs)
	}
}

// TestEncoderBenchFixturesGolden re-checks the fixtures against encoding/json
// so the benchmarks can never time an encoder that has drifted off the wire
// format (the server package pins real responses; this pins the synthetic
// ones the benches use).
func TestEncoderBenchFixturesGolden(t *testing.T) {
	for _, v := range []interface {
		AppendJSON([]byte) []byte
	}{PlanFixture(), SimulateFixture()} {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := v.AppendJSON(nil); string(got) != string(want) {
			t.Errorf("fixture encoder diverges:\n got %s\nwant %s", got, want)
		}
	}
}

// TestGraphPipelineReuseWithinBudget pins the GraphPipeline8x256 shape:
// re-populating a Reset graph and running it allocates nothing, never the
// ~109 allocs/op of building the graph, resources, and adjacency from
// scratch each op.
func TestGraphPipelineReuseWithinBudget(t *testing.T) {
	const d, k = 8, 256
	g := des.NewGraph()
	var makespan des.Time
	links := make([]*des.Resource, d)
	for l := range links {
		links[l] = des.NewResource("link")
	}
	prev := make([]int, k)
	op := func() {
		g.Reset()
		for _, r := range links {
			r.Reset()
		}
		for l := 0; l < d; l++ {
			for c := 0; c < k; c++ {
				if l == 0 {
					prev[c] = g.Add("hop", links[l], 100)
				} else {
					prev[c] = g.Add("hop", links[l], 100, prev[c])
				}
			}
		}
		var err error
		if makespan, err = g.RunCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	op() // warm the backing arrays
	if allocs := testing.AllocsPerRun(5, op); int64(allocs) > SteadyStateBudget {
		t.Errorf("graph reuse op: %v allocs/op, budget %d", allocs, SteadyStateBudget)
	}
	// The result must still be the full pipeline: 2048 tasks, correct makespan
	// (8 serial hops of 100 on the critical path, 256 chains sharing each link
	// serially: last chain ends at (256+7)*100).
	if g.NumTasks() != d*k {
		t.Fatalf("NumTasks = %d, want %d", g.NumTasks(), d*k)
	}
	if want := des.Time((k + d - 1) * 100); makespan != want {
		t.Errorf("makespan = %v, want %v", makespan, want)
	}
}
