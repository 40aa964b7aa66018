package des

import (
	"math/rand"
	"testing"
)

// randomGraph builds a random DAG over a pool of resources. Dependencies
// only point backwards (toward lower task ids), so the graph is acyclic by
// construction.
func randomGraph(rng *rand.Rand) (*Graph, []*Resource, [][]int) {
	g := NewGraph()
	nRes := rng.Intn(6) + 1
	res := make([]*Resource, nRes)
	for i := range res {
		res[i] = NewResource("r")
	}
	nTasks := rng.Intn(200) + 1
	deps := make([][]int, nTasks)
	for i := 0; i < nTasks; i++ {
		var r *Resource
		if rng.Intn(4) != 0 { // 1/4 of tasks are pure delays
			r = res[rng.Intn(nRes)]
		}
		if i > 0 {
			nd := rng.Intn(3)
			for j := 0; j < nd; j++ {
				deps[i] = append(deps[i], rng.Intn(i))
			}
		}
		g.Add("t", r, Time(rng.Intn(1000)), deps[i]...)
	}
	return g, res, deps
}

func TestGraphPropertyInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 200; iter++ {
		g, res, deps := randomGraph(rng)
		makespan := mustRun(t, g)

		var maxEnd Time
		for i := 0; i < g.NumTasks(); i++ {
			start, end := g.Start(i), g.End(i)
			// Start/End consistency.
			if start < g.Ready(i) {
				t.Fatalf("iter %d task %d: start %v before ready %v", iter, i, start, g.Ready(i))
			}
			if end < start {
				t.Fatalf("iter %d task %d: end %v before start %v", iter, i, end, start)
			}
			if g.Resource(i) == nil && end != start+g.f.Dur[i] {
				t.Fatalf("iter %d task %d: delay task duration wrong", iter, i)
			}
			// Causality: no task starts before all dependencies ended.
			for _, d := range deps[i] {
				if start < g.End(d) {
					t.Fatalf("iter %d: task %d started %v before dep %d ended %v",
						iter, i, start, d, g.End(d))
				}
			}
			if end > maxEnd {
				maxEnd = end
			}
		}
		if makespan != maxEnd {
			t.Fatalf("iter %d: makespan %v != max end %v", iter, makespan, maxEnd)
		}
		// Resource serialization.
		for _, r := range res {
			if err := r.ValidateSerialized(); err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
		}
	}
}

func TestGraphDeterminism(t *testing.T) {
	// Two runs of identically built graphs must give identical timelines.
	build := func() *Graph {
		rng := rand.New(rand.NewSource(99))
		g, _, _ := randomGraph(rng)
		return g
	}
	g1, g2 := build(), build()
	if mustRun(t, g1) != mustRun(t, g2) {
		t.Fatal("identical graphs produced different makespans")
	}
	for i := 0; i < g1.NumTasks(); i++ {
		if g1.Start(i) != g2.Start(i) || g1.End(i) != g2.End(i) {
			t.Fatalf("task %d timing differs between identical runs", i)
		}
	}
}

func TestGraphWorkConservation(t *testing.T) {
	// A resource is never idle while a task that only needs that resource
	// has been ready: total busy time equals the sum of scheduled durations.
	rng := rand.New(rand.NewSource(44))
	for iter := 0; iter < 50; iter++ {
		g, res, _ := randomGraph(rng)
		mustRun(t, g)
		var wantBusy Time
		for i := 0; i < g.NumTasks(); i++ {
			if g.Resource(i) != nil {
				wantBusy += g.End(i) - g.Start(i)
			}
		}
		var gotBusy Time
		for _, r := range res {
			gotBusy += r.BusyTime()
		}
		if gotBusy != wantBusy {
			t.Fatalf("iter %d: busy %v != scheduled %v", iter, gotBusy, wantBusy)
		}
	}
}
