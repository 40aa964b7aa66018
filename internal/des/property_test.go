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
			task := g.Task(i)
			// Start/End consistency.
			if task.Start < task.Ready {
				t.Fatalf("iter %d task %d: start %v before ready %v", iter, i, task.Start, task.Ready)
			}
			if task.End < task.Start {
				t.Fatalf("iter %d task %d: end %v before start %v", iter, i, task.End, task.Start)
			}
			if task.Resource == nil && task.End != task.Start+task.Duration {
				t.Fatalf("iter %d task %d: delay task duration wrong", iter, i)
			}
			// Causality: no task starts before all dependencies ended.
			for _, d := range deps[i] {
				if task.Start < g.Task(d).End {
					t.Fatalf("iter %d: task %d started %v before dep %d ended %v",
						iter, i, task.Start, d, g.Task(d).End)
				}
			}
			if task.End > maxEnd {
				maxEnd = task.End
			}
		}
		if makespan != maxEnd {
			t.Fatalf("iter %d: makespan %v != max end %v", iter, makespan, maxEnd)
		}
		if g.Makespan() != maxEnd {
			t.Fatalf("iter %d: Makespan() %v != max end %v", iter, g.Makespan(), maxEnd)
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
		if g1.Task(i).Start != g2.Task(i).Start || g1.Task(i).End != g2.Task(i).End {
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
			task := g.Task(i)
			if task.Resource != nil {
				wantBusy += task.End - task.Start
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

func TestCriticalPathProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for iter := 0; iter < 50; iter++ {
		g, _, _ := randomGraph(rng)
		mustRun(t, g)
		path := g.CriticalPath()
		if len(path) == 0 {
			t.Fatalf("iter %d: empty critical path", iter)
		}
		// The path ends at a makespan task and is causally ordered.
		last := g.Task(path[len(path)-1])
		if last.End != g.Makespan() {
			t.Fatalf("iter %d: critical path ends at %v, makespan %v", iter, last.End, g.Makespan())
		}
		for i := 1; i < len(path); i++ {
			prev, cur := g.Task(path[i-1]), g.Task(path[i])
			if prev.End > cur.Ready {
				t.Fatalf("iter %d: critical path not causally ordered", iter)
			}
		}
	}
}
