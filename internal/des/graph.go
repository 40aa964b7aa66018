package des

import (
	"context"
	"fmt"
)

// Task is a unit of work in a dependency graph. A task becomes ready when all
// of its dependencies have ended; it then occupies its Resource (if any) for
// Duration. Tasks without a Resource model pure delays (or instantaneous
// joins when Duration is zero).
type Task struct {
	ID       int
	Label    string
	Resource *Resource // nil for a delay/join task
	Duration Time

	// Filled in by Graph.RunCtx.
	Ready Time // when all dependencies ended
	Start Time // when the resource was granted
	End   Time // Start + Duration (after resource slowdown)

	deps     int // declared dependencies
	done     bool
	earliest Time // lower bound on readiness independent of deps
}

// Graph is a DAG of Tasks executed over serialized Resources. Build it once,
// then call RunCtx; the computed Start/End times answer every timing question an
// experiment asks.
//
// Tasks live in one contiguous slice — adding a task is an amortized slice
// append, not a heap allocation per task (use Reserve when the count is
// known). The *Task pointers returned by Task are therefore only stable
// once construction is done: hold ids, not pointers, while still adding.
// Dependency edges accumulate in one flat list; RunCtx compiles tasks and
// edges into the columns of the graph's Flat and runs the one run loop
// there.
type Graph struct {
	tasks []Task
	edges []depEdge // (pred, succ) in insertion order
	flat  *Flat     // run scratch, kept across Reset/run cycles
	ran   bool
}

type depEdge struct{ pred, succ int32 }

// NewGraph returns an empty task graph.
func NewGraph() *Graph { return &Graph{} }

// Reserve preallocates capacity for n tasks, so the following Adds don't
// grow the slice. Schedule instantiation knows its task count up front.
func (g *Graph) Reserve(n int) {
	if cap(g.tasks)-len(g.tasks) < n {
		grown := make([]Task, len(g.tasks), len(g.tasks)+n) // prealloc: sizing the task store once
		copy(grown, g.tasks)
		g.tasks = grown
	}
}

// ReserveEdges preallocates capacity for n additional dependency edges, so
// edge-heavy schedules declare dependencies without growing the list.
func (g *Graph) ReserveEdges(n int) {
	if cap(g.edges)-len(g.edges) < n {
		grown := make([]depEdge, len(g.edges), len(g.edges)+n) // prealloc: sizing the edge list once
		copy(grown, g.edges)
		g.edges = grown
	}
}

// Reset returns the graph to the empty, never-ran state while keeping every
// backing allocation — task store, edge list and run scratch — so a caller
// rebuilding a same-shape graph reuses the warm capacity instead of
// reallocating it.
// Resources are not touched; reset them separately if they are reused too.
func (g *Graph) Reset() {
	g.tasks = g.tasks[:0]
	g.edges = g.edges[:0]
	g.ran = false
}

// NumTasks reports how many tasks have been added.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// Task returns the task with the given id. The pointer aliases the graph's
// task store: it is invalidated by a later Add, so only retain it after
// construction is complete.
func (g *Graph) Task(id int) *Task { return &g.tasks[id] }

// Add appends a task occupying res for d, depending on the given task ids,
// and returns its id. A nil res models a pure delay.
func (g *Graph) Add(label string, res *Resource, d Time, deps ...int) int {
	if g.ran {
		panic("des: adding task to a graph that already ran")
	}
	if d < 0 {
		panic(fmt.Sprintf("des: task %q has negative duration %v", label, d))
	}
	id := len(g.tasks)
	g.tasks = append(g.tasks, Task{ID: id, Label: label, Resource: res, Duration: d}) // amortized: Reserve sizes the store
	g.AddDeps(id, deps...)
	return id
}

// AddDeps declares that task id depends on each task in deps. Dependencies
// must already exist and must precede id (the graph is built topologically).
func (g *Graph) AddDeps(id int, deps ...int) {
	t := &g.tasks[id]
	for _, d := range deps {
		if d < 0 || d >= len(g.tasks) {
			panic(fmt.Sprintf("des: task %q depends on unknown task %d", t.Label, d))
		}
		if d == id {
			panic(fmt.Sprintf("des: task %q depends on itself", t.Label))
		}
		g.edges = append(g.edges, depEdge{pred: int32(d), succ: int32(id)}) // amortized: one flat list for all edges
		t.deps++
	}
}

// SetEarliest sets a lower bound on when the task may become ready,
// independent of its dependencies (e.g. an external arrival time).
func (g *Graph) SetEarliest(id int, t Time) {
	if g.ran {
		panic("des: mutating a graph that already ran")
	}
	g.tasks[id].earliest = t
}

// TaskFault identifies one task refused by its failed resource.
type TaskFault struct {
	TaskID   int
	Label    string
	Resource string
	At       Time // when the task would have started
	FailedAt Time // when the resource died
}

// FaultError reports that a run aborted because a resource refused a task
// (see Resource.FailAt). The run stops deterministically at the first
// refusal; Executed counts the tasks that completed before it.
type FaultError struct {
	Faults   []TaskFault
	Executed int
	Total    int
}

func (e *FaultError) Error() string {
	f := e.Faults[0]
	return fmt.Sprintf("des: task %d %q refused by failed resource %s (died at %v, would start at %v); %d of %d tasks executed",
		f.TaskID, f.Label, f.Resource, f.FailedAt, f.At, e.Executed, e.Total)
}

// RunCtx executes the graph and returns the makespan (max task End). It may
// be called once per graph, and it stops early in two ways:
//
//   - a failed resource (Resource.FailAt) refuses a task: the run returns
//     the makespan so far with a *FaultError naming the refused task;
//     callers repair the schedule and retry on a fresh graph.
//   - ctx is cancelled: the run returns a *CanceledError. The checkpoint
//     sits at task-pop granularity, so at most the task already holding its
//     resource completes after cancellation. A context whose Done channel is
//     nil skips the checkpoint entirely, so the uncancellable path pays
//     nothing.
//
// Either way the graph counts as ran. Dependency cycles panic — they are
// construction bugs, not faults. The run itself is Flat.RunCtx over the
// graph compiled into its Flat; the times are copied back into the tasks.
func (g *Graph) RunCtx(ctx context.Context) (Time, error) {
	if g.ran {
		panic("des: graph ran twice")
	}
	g.ran = true
	if g.flat == nil {
		g.flat = new(Flat)
	}
	f := g.flat
	g.compile(f)
	makespan, err := f.RunCtx(ctx)
	g.Load(f)
	if fe, ok := err.(*FaultError); ok {
		fe.Faults[0].Label = g.tasks[fe.Faults[0].TaskID].Label
	}
	return makespan, err
}

// compile writes the graph into f: one task column entry per task, one
// resource index per distinct Resource (bound, so its plan applies and its
// occupancy is logged), and the successor CSR in edge insertion order.
func (g *Graph) compile(f *Flat) {
	for i := range g.tasks {
		if r := g.tasks[i].Resource; r != nil {
			r.slot = -1
		}
	}
	var nres int32
	for i := range g.tasks {
		if r := g.tasks[i].Resource; r != nil && r.slot < 0 {
			r.slot = nres
			nres++
		}
	}
	f.Reset(len(g.tasks), int(nres))
	for i := range g.tasks {
		t := &g.tasks[i]
		f.Dur[i] = t.Duration
		f.Pending[i] = int32(t.deps)
		f.Res[i] = -1
		if r := t.Resource; r != nil {
			f.Res[i] = r.slot
			f.Bind(int(r.slot), r)
		}
		if t.earliest != 0 {
			f.SetEarliest(i, t.earliest)
		}
	}
	for _, e := range g.edges {
		f.CountSucc(int(e.pred))
	}
	f.Link()
	for _, e := range g.edges {
		f.AddSucc(int(e.pred), int(e.succ))
	}
}

// Load records a run of f as the graph's outcome and marks the graph ran:
// task i takes f's Ready, Start and End for task i and counts as done when
// f ran it. f must hold the graph's tasks under the same ids — compiled by
// RunCtx, or filled by a caller that ran the same tasks straight from its
// own representation and wants them as a Graph (for timeline export).
func (g *Graph) Load(f *Flat) {
	if len(f.Dur) != len(g.tasks) {
		panic(fmt.Sprintf("des: loading a run of %d tasks into a graph of %d", len(f.Dur), len(g.tasks)))
	}
	g.ran = true
	for i := range g.tasks {
		t := &g.tasks[i]
		t.Ready, t.Start, t.End = f.Ready[i], f.Start[i], f.End[i]
		t.done = f.Done(i)
	}
}

// Ran reports whether RunCtx has executed.
func (g *Graph) Ran() bool { return g.ran }

// End returns the end time of task id (valid after RunCtx).
func (g *Graph) End(id int) Time { return g.tasks[id].End }

// Done reports whether task id completed. After a clean run every task is
// done; after an aborted run (FaultError, CanceledError) the done set is the
// executed prefix, which is what checkpoint/resume machinery needs to decide
// which work survives a mid-run repair.
func (g *Graph) Done(id int) bool { return g.tasks[id].done }

// Makespan recomputes the maximum End across all tasks (valid after RunCtx).
func (g *Graph) Makespan() Time {
	var m Time
	for i := range g.tasks {
		if g.tasks[i].End > m {
			m = g.tasks[i].End
		}
	}
	return m
}

// CriticalPath returns one chain of task ids ending at the makespan task,
// following, at each step, the dependency whose End equals the task's Ready
// time (the first such dependency in declaration order). Useful for
// explaining where time went in an experiment.
func (g *Graph) CriticalPath() []int {
	if len(g.tasks) == 0 {
		return nil
	}
	// Find the makespan task.
	last := 0
	for i := range g.tasks {
		if g.tasks[i].End > g.tasks[last].End {
			last = i
		}
	}
	// The predecessor view: a counting sort of the edge list by successor,
	// stable in declaration order, so task i's dependencies are
	// pred[off[i]:off[i+1]].
	off := make([]int32, len(g.tasks)+1)
	for _, e := range g.edges {
		off[e.succ+1]++
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	pred := make([]int32, len(g.edges))
	next := make([]int32, len(g.tasks))
	copy(next, off)
	for _, e := range g.edges {
		pred[next[e.succ]] = e.pred
		next[e.succ]++
	}
	var path []int
	cur := last
	for {
		path = append(path, cur)
		next := -1
		for _, p := range pred[off[cur]:off[cur+1]] {
			if g.tasks[p].End == g.tasks[cur].Ready {
				next = int(p)
				break
			}
		}
		if next < 0 {
			break
		}
		cur = next
	}
	// Reverse into source-to-sink order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}
