package des

import (
	"context"
	"fmt"
	"slices"
)

// Graph is a DAG of tasks executed over serialized Resources. Build it once,
// then call RunCtx; the computed Start/End times answer every timing question an
// experiment asks. A task becomes ready when all of its dependencies have
// ended; it then occupies its Resource (if any) for its duration. Tasks
// without a Resource model pure delays (or joins, when instantaneous).
//
// Tasks are rows of the graph's Flat columns plus a resource, and task i
// depends on preds[predOff[i]:predOff[i+1]]. RunCtx binds each distinct
// Resource once, links the CSR into the Flat and runs the one run loop
// there; Start, End and Ready read the outcome off its columns. Tasks
// carry no names: the graph's Namer derives them.
type Graph struct {
	f       Flat
	res     []*Resource // per task: the resource it occupies, nil for a delay
	namer   Namer
	predOff []int32
	preds   []int32
	ran     bool
}

// Namer names a graph's tasks. Label(id) is asked only when a name is
// needed — timeline export, a FaultError, a construction panic — so a
// graph builder derives names from each task's position instead of
// formatting one per task.
type Namer interface {
	Label(id int) string
}

// NamerFunc adapts a function to a Namer.
type NamerFunc func(id int) string

// Label returns f(id).
func (f NamerFunc) Label(id int) string { return f(id) }

// NewGraph returns an empty task graph.
func NewGraph() *Graph { return &Graph{predOff: []int32{0}} }

// Reset returns the graph to the empty, never-ran state while keeping every
// backing allocation — task columns, predecessor CSR and run scratch — so a
// caller rebuilding a same-shape graph reuses the warm capacity instead of
// reallocating it. The namer is dropped with the tasks it named.
// Resources are not touched; reset them separately if they are reused too.
func (g *Graph) Reset() {
	g.res = g.res[:0]
	g.namer = nil
	g.f.Dur = g.f.Dur[:0]
	g.f.earliest = g.f.earliest[:0]
	g.predOff = append(g.predOff[:0], 0) // reuses the offsets' array
	g.preds = g.preds[:0]
	g.ran = false
}

// NumTasks reports how many tasks have been added.
func (g *Graph) NumTasks() int { return len(g.res) }

// SetNamer makes name render the graph's task names (see Namer).
func (g *Graph) SetNamer(name Namer) { g.namer = name }

// Add appends a task occupying res for d, depending on the given task ids,
// and returns its id. A nil res models a pure delay. Dependencies must
// already exist (the graph is built topologically).
func (g *Graph) Add(res *Resource, d Time, deps ...int) int {
	id := g.addRows(1)
	g.Set(id, res, d)
	for _, p := range deps {
		if p < 0 || p >= id {
			panic(fmt.Sprintf("des: task %q depends on unknown task %d", g.Label(id), p))
		}
		g.preds = append(g.preds, int32(p)) // one CSR for all dependencies
	}
	g.predOff = append(g.predOff, int32(len(g.preds))) // Reset keeps the offsets
	return id
}

// AddBlock appends n tasks as one block and returns the first one's id,
// base. Block task i depends on block task p for every p in
// preds[off[i]:off[i+1]], and a block task with no such dependency depends
// on root instead when root >= 0. The tasks start as zero-duration delays;
// Set gives each its resource and duration.
func (g *Graph) AddBlock(n int, off, preds []int32, root int) int {
	if root >= len(g.res) {
		panic(fmt.Sprintf("des: block depends on unknown task %d", root))
	}
	base := g.addRows(n)
	for i := 0; i < n; i++ {
		row := preds[off[i]:off[i+1]]
		if len(row) == 0 && root >= 0 {
			g.preds = append(g.preds, int32(root))
		}
		for _, p := range row {
			g.preds = append(g.preds, int32(base)+p)
		}
		g.predOff = append(g.predOff, int32(len(g.preds)))
	}
	return base
}

// addRows appends n zero rows to the task columns and returns the first
// one's id.
func (g *Graph) addRows(n int) int {
	if g.ran {
		panic("des: adding task to a graph that already ran")
	}
	if len(g.predOff) == 0 {
		g.predOff = append(g.predOff, 0) // once per zero-value graph
	}
	id := len(g.res)
	g.res = extend(g.res, n)
	g.f.Dur = extend(g.f.Dur, n)
	if len(g.f.earliest) > 0 {
		g.f.earliest = extend(g.f.earliest, n)
	}
	return id
}

// extend returns s with n more entries, zeroed. It grows s only past the
// capacity Reset keeps, so a warm graph adds rows without allocating.
func extend[T any](s []T, n int) []T {
	s = slices.Grow(s, n)[:len(s)+n]
	clear(s[len(s)-n:])
	return s
}

// Set makes task id occupy res for d. A nil res models a pure delay.
func (g *Graph) Set(id int, res *Resource, d Time) {
	if g.ran {
		panic("des: mutating a graph that already ran")
	}
	if d < 0 {
		panic(fmt.Sprintf("des: task %q has negative duration %v", g.Label(id), d))
	}
	g.res[id], g.f.Dur[id] = res, d
}

// SetEarliest sets a lower bound on when the task may become ready,
// independent of its dependencies (e.g. an external arrival time).
func (g *Graph) SetEarliest(id int, t Time) {
	if g.ran {
		panic("des: mutating a graph that already ran")
	}
	g.f.SetEarliest(id, t)
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
//   - ctx is cancelled: the run returns a *CanceledError. The run checks
//     ctx before its first task pop and then before every 64th, so at most
//     64 tasks are granted after cancellation. A context whose Done channel
//     is nil skips the check entirely, so the uncancellable path pays
//     nothing.
//
// Either way the graph counts as ran. Dependency cycles panic — they are
// construction bugs, not faults. The run itself is Flat.RunCtx over the
// graph's columns.
func (g *Graph) RunCtx(ctx context.Context) (Time, error) {
	if g.ran {
		panic("des: graph ran twice")
	}
	g.ran = true
	for _, r := range g.res {
		if r != nil {
			r.slot = -1
		}
	}
	var nres int32
	for _, r := range g.res {
		if r != nil && r.slot < 0 {
			r.slot = nres
			nres++
		}
	}
	// Bind each resource once, sizing its interval log for its tasks up
	// front so no grant grows it; Busy counts the tasks until the run sums
	// occupancy into it.
	f := &g.f
	f.size(int(nres))
	for i, r := range g.res {
		f.Res[i] = -1
		if r != nil {
			f.Res[i] = r.slot
			f.bound[r.slot] = r
			f.Busy[r.slot]++
		}
	}
	for k, r := range f.bound {
		f.Bind(k, r)
		r.Prealloc(int(f.Busy[k]))
	}
	clear(f.Busy)
	f.Link(g.predOff, g.preds)
	makespan, err := f.RunCtx(ctx)
	if fe, ok := err.(*FaultError); ok {
		fe.Faults[0].Label = g.Label(fe.Faults[0].TaskID)
	}
	return makespan, err
}

// RanGraph wraps a finished run of f as a graph for timeline export: task i
// is f's task i, named by name, on the Resource bound at f.Res[i]. The
// graph takes f over; the caller must not touch f afterwards.
func RanGraph(f *Flat, name Namer) *Graph {
	res := make([]*Resource, len(f.Dur))
	for i, k := range f.Res {
		if k >= 0 {
			res[i] = f.bound[k]
		}
	}
	return &Graph{f: *f, res: res, namer: name, ran: true}
}

// Ran reports whether RunCtx has executed.
func (g *Graph) Ran() bool { return g.ran }

// Label renders task id's name through the graph's namer; a graph without
// one names every task "".
func (g *Graph) Label(id int) string {
	if g.namer == nil {
		return ""
	}
	return g.namer.Label(id)
}

// Resource returns the resource task id occupies, nil for a delay.
func (g *Graph) Resource(id int) *Resource { return g.res[id] }

// Ready returns when task id's dependencies had all ended (valid after
// RunCtx).
func (g *Graph) Ready(id int) Time { return g.f.Ready[id] }

// Start returns when task id was granted its resource (valid after RunCtx).
func (g *Graph) Start(id int) Time { return g.f.Start[id] }

// End returns the end time of task id (valid after RunCtx).
func (g *Graph) End(id int) Time { return g.f.End[id] }

// Times returns the Start and End columns of tasks lo..hi-1 (valid after
// RunCtx), indexed from lo. They are views of the graph's own columns:
// read them, never write them.
func (g *Graph) Times(lo, hi int) (start, end []Time) {
	return g.f.Start[lo:hi:hi], g.f.End[lo:hi:hi]
}
