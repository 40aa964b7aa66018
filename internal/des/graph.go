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

	deps      int // remaining unfinished dependencies
	depsTotal int
	scheduled bool
	done      bool
	earliest  Time // lower bound on readiness independent of deps
}

// Graph is a DAG of Tasks executed over serialized Resources. Build it once,
// then call RunCtx; the computed Start/End times answer every timing question an
// experiment asks.
//
// Tasks live in one contiguous slice — adding a task is an amortized slice
// append, not a heap allocation per task (use Reserve when the count is
// known). The *Task pointers returned by Task are therefore only stable
// once construction is done: hold ids, not pointers, while still adding.
// Dependency edges accumulate in one flat list and are compiled into a CSR
// adjacency at run time, so a task's dependent fan-out costs no per-task
// slice.
type Graph struct {
	tasks []Task
	edges []depEdge // (pred, succ) in insertion order
	// CSR adjacency compiled by RunCtx: dependents of task i are
	// depAdj[depOff[i-1]:depOff[i]] (depOff[-1] treated as 0), preserving
	// per-pred insertion order for deterministic scheduling.
	depOff []int32
	depAdj []int32
	ready  []int32 // ready-heap scratch, reused across Reset/run cycles
	ran    bool
}

type depEdge struct{ pred, succ int32 }

// dependents returns task id's successors; valid after buildAdjacency.
func (g *Graph) dependents(id int32) []int32 {
	var start int32
	if id > 0 {
		start = g.depOff[id-1]
	}
	return g.depAdj[start:g.depOff[id]]
}

// buildAdjacency compiles the flat edge list into the CSR arrays: a counting
// sort by predecessor, stable in insertion order. depOff doubles as the fill
// cursor — after the forward fill, depOff[i] has advanced from task i's
// start offset to its end offset, which is exactly the convention
// dependents() reads.
func (g *Graph) buildAdjacency() {
	if cap(g.depOff) >= len(g.tasks) {
		g.depOff = g.depOff[:len(g.tasks)]
		for i := range g.depOff {
			g.depOff[i] = 0
		}
	} else {
		g.depOff = make([]int32, len(g.tasks)) // prealloc: exact CSR offset table
	}
	for _, e := range g.edges {
		g.depOff[e.pred]++
	}
	var sum int32
	for i := range g.depOff {
		c := g.depOff[i]
		g.depOff[i] = sum // start offset of task i
		sum += c
	}
	if cap(g.depAdj) >= len(g.edges) {
		g.depAdj = g.depAdj[:len(g.edges)]
	} else {
		g.depAdj = make([]int32, len(g.edges)) // prealloc: exact CSR payload
	}
	for _, e := range g.edges {
		g.depAdj[g.depOff[e.pred]] = e.succ
		g.depOff[e.pred]++
	}
}

// NewGraph returns an empty task graph.
func NewGraph() *Graph { return &Graph{} }

// Reserve preallocates capacity for n tasks, so the following Adds don't
// grow the slice — and sizes the run-time scratch (CSR offset table, ready
// heap) that scales with the task count, so a reserved graph runs without
// growing those either. Schedule instantiation knows its task count up front.
func (g *Graph) Reserve(n int) {
	if cap(g.tasks)-len(g.tasks) < n {
		grown := make([]Task, len(g.tasks), len(g.tasks)+n) // prealloc: sizing the task store once
		copy(grown, g.tasks)
		g.tasks = grown
	}
	if cap(g.depOff) < cap(g.tasks) {
		g.depOff = make([]int32, 0, cap(g.tasks)) // prealloc: sizing the CSR offset table once
	}
	if cap(g.ready) < cap(g.tasks) {
		g.ready = make([]int32, 0, cap(g.tasks)) // prealloc: sizing the ready heap once
	}
}

// ReserveEdges preallocates capacity for n additional dependency edges (the
// flat edge list plus the CSR payload compiled at run time), so edge-heavy
// schedules declare and compile dependencies without growing either array.
func (g *Graph) ReserveEdges(n int) {
	if cap(g.edges)-len(g.edges) < n {
		grown := make([]depEdge, len(g.edges), len(g.edges)+n) // prealloc: sizing the edge list once
		copy(grown, g.edges)
		g.edges = grown
	}
	if cap(g.depAdj) < len(g.edges)+n {
		g.depAdj = make([]int32, 0, len(g.edges)+n) // prealloc: sizing the CSR payload once
	}
}

// Reset returns the graph to the empty, never-ran state while keeping every
// backing allocation — task store, edge list, CSR arrays, ready-heap scratch
// — so a caller rebuilding a same-shape graph reuses the warm capacity
// instead of reallocating it. Resources are not touched; reset them
// separately if they are reused too.
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
		t.depsTotal++
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

// The ready queue is a hand-rolled binary min-heap of task ids ordered by
// (ready time, id) for deterministic FIFO grants — ids rather than pointers,
// and manual sifting rather than container/heap, to keep RunCtx's inner loop
// free of interface dispatch.

func readyLess(tasks []Task, a, b int32) bool {
	if tasks[a].Ready != tasks[b].Ready {
		return tasks[a].Ready < tasks[b].Ready
	}
	return a < b
}

func readyPush(tasks []Task, h []int32, id int32) []int32 {
	h = append(h, id) // amortized: RunCtx preallocates full capacity
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !readyLess(tasks, h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

func readyPop(tasks []Task, h []int32) (int32, []int32) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && readyLess(tasks, h[r], h[l]) {
			min = r
		}
		if !readyLess(tasks, h[min], h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top, h
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
// construction bugs, not faults.
func (g *Graph) RunCtx(ctx context.Context) (Time, error) {
	if g.ran {
		panic("des: graph ran twice")
	}
	g.ran = true
	g.buildAdjacency()
	done := ctx.Done()

	ready := g.ready[:0]
	if cap(ready) < len(g.tasks) {
		ready = make([]int32, 0, len(g.tasks)) // prealloc: every task enters the heap at most once
	}
	g.ready = ready // retain the backing array for the next Reset/run cycle
	for i := range g.tasks {
		t := &g.tasks[i]
		if t.deps == 0 {
			t.Ready = t.earliest
			t.scheduled = true
			ready = readyPush(g.tasks, ready, int32(i))
		}
	}

	var makespan Time
	executed := 0
	maxReadyDepth := len(ready)
	for len(ready) > 0 {
		if done != nil {
			select {
			case <-done:
				mTasksExecuted.Add(int64(executed))
				mReadyDepthMax.SetMax(float64(maxReadyDepth))
				return makespan, &CanceledError{
					At:        makespan,
					Executed:  executed,
					Remaining: len(g.tasks) - executed,
					Cause:     context.Cause(ctx),
				}
			default:
			}
		}
		if len(ready) > maxReadyDepth {
			maxReadyDepth = len(ready)
		}
		var id int32
		id, ready = readyPop(g.tasks, ready)
		t := &g.tasks[id]
		if t.Resource != nil {
			start, end, err := t.Resource.reserve(t.Ready, t.Duration, t.ID)
			if err != nil {
				ref := err.(*refusal)
				mTasksExecuted.Add(int64(executed))
				mReadyDepthMax.SetMax(float64(maxReadyDepth))
				return makespan, &FaultError{
					Faults: []TaskFault{{
						TaskID:   t.ID,
						Label:    t.Label,
						Resource: ref.Resource,
						At:       ref.At,
						FailedAt: ref.FailedAt,
					}},
					Executed: executed,
					Total:    len(g.tasks),
				}
			}
			t.Start, t.End = start, end
		} else {
			t.Start = t.Ready
			t.End = t.Start + t.Duration
		}
		t.done = true
		executed++
		if t.End > makespan {
			makespan = t.End
		}
		for _, did := range g.dependents(id) {
			d := &g.tasks[did]
			if t.End > d.Ready {
				d.Ready = t.End
			}
			d.deps--
			if d.deps == 0 {
				if d.earliest > d.Ready {
					d.Ready = d.earliest
				}
				d.scheduled = true
				ready = readyPush(g.tasks, ready, int32(did))
			}
		}
	}
	if executed != len(g.tasks) {
		panic(fmt.Sprintf("des: dependency cycle: %d of %d tasks executed", executed, len(g.tasks)))
	}
	mTasksExecuted.Add(int64(executed))
	mReadyDepthMax.SetMax(float64(maxReadyDepth))
	return makespan, nil
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
// time. Useful for explaining where time went in an experiment.
func (g *Graph) CriticalPath() []int {
	if len(g.tasks) == 0 {
		return nil
	}
	// Find the makespan task.
	last := &g.tasks[0]
	for i := range g.tasks[1:] {
		if t := &g.tasks[i+1]; t.End > last.End {
			last = t
		}
	}
	// Build reverse dependency lists lazily: find, for each task on the path,
	// a predecessor that determined its readiness.
	prev := make(map[int][]int, len(g.tasks))
	for _, e := range g.edges {
		prev[int(e.succ)] = append(prev[int(e.succ)], int(e.pred))
	}
	var path []int
	cur := last
	for {
		path = append(path, cur.ID)
		var next *Task
		for _, pid := range prev[cur.ID] {
			if p := &g.tasks[pid]; p.End == cur.Ready {
				next = p
				break
			}
		}
		if next == nil {
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
