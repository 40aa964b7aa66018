package des

import (
	"context"
	"fmt"
)

// This file keeps the task-graph engine the one run loop (Flat.RunCtx)
// replaced: a binary ready heap over 96-byte Tasks, a per-run CSR compiled
// from the edge list, and per-reservation Resource bookkeeping. It is the
// reference the differential tests (differential_test.go) hold the run loop
// to, Start, End and Ready of every task and every FaultError and
// CanceledError field included.

// RunReference runs g on the reference engine. Like RunCtx it may be
// called once per graph.
func RunReference(ctx context.Context, g *Graph) (Time, error) { return g.referenceRunCtx(ctx) }

// CloneUnrun returns a copy of g's structure — tasks, durations, earliest
// bounds and edges — that has not run, over fresh copies of its resources
// that keep their slowdown and failure plans but no occupancy, as they were
// before a run of fresh resources. It lets a test rerun a graph some
// package built and ran on the reference engine.
func CloneUnrun(g *Graph) *Graph {
	clones := map[*Resource]*Resource{}
	out := NewGraph()
	for _, t := range g.tasks {
		var r *Resource
		if t.Resource != nil {
			if r = clones[t.Resource]; r == nil {
				src := t.Resource
				r = &Resource{Name: src.Name, slowdownPPM: src.slowdownPPM,
					breaks: append([]slowBreak(nil), src.breaks...), failAt: src.failAt, hasFail: src.hasFail}
				clones[src] = r
			}
		}
		out.tasks = append(out.tasks, Task{ID: t.ID, Label: t.Label, Resource: r, Duration: t.Duration,
			deps: t.deps, earliest: t.earliest})
	}
	out.edges = append(out.edges, g.edges...)
	return out
}

// refusal is returned by reserve when the resource has failed.
type refusal struct {
	Resource string
	At       Time // when the reservation would have started
	FailedAt Time // when the resource died
}

func (e *refusal) Error() string {
	return fmt.Sprintf("des: resource %s failed at %v, refused reservation at %v", e.Resource, e.FailedAt, e.At)
}

// reserve grants the resource to a task that became ready at `ready` for
// duration d, returning the granted [start, end) window. A failed resource
// refuses any reservation starting at or after its failure time.
func (r *Resource) reserve(ready Time, d Time, taskID int) (start, end Time, err error) {
	start = ready
	if r.freeAt > start {
		start = r.freeAt
	}
	if r.hasFail && start >= r.failAt {
		return 0, 0, &refusal{Resource: r.Name, At: start, FailedAt: r.failAt}
	}
	end = start + r.scaledAt(start, d)
	r.freeAt = end
	r.busy = append(r.busy, Interval{Start: start, End: end, TaskID: taskID})
	mResourceBusyNS.Add(int64(end - start))
	return start, end, nil
}

// referenceAdjacency compiles the flat edge list into CSR arrays: a
// counting sort by predecessor, stable in insertion order. Dependents of
// task i are depAdj[depOff[i-1]:depOff[i]] (depOff[-1] treated as 0).
func (g *Graph) referenceAdjacency() (depOff, depAdj []int32) {
	depOff = make([]int32, len(g.tasks))
	for _, e := range g.edges {
		depOff[e.pred]++
	}
	var sum int32
	for i := range depOff {
		c := depOff[i]
		depOff[i] = sum // start offset of task i
		sum += c
	}
	depAdj = make([]int32, len(g.edges))
	for _, e := range g.edges {
		depAdj[depOff[e.pred]] = e.succ
		depOff[e.pred]++
	}
	return depOff, depAdj
}

func readyLess(tasks []Task, a, b int32) bool {
	if tasks[a].Ready != tasks[b].Ready {
		return tasks[a].Ready < tasks[b].Ready
	}
	return a < b
}

func readyPush(tasks []Task, h []int32, id int32) []int32 {
	h = append(h, id)
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

// referenceRunCtx is the former Graph.RunCtx body.
func (g *Graph) referenceRunCtx(ctx context.Context) (Time, error) {
	if g.ran {
		panic("des: graph ran twice")
	}
	g.ran = true
	depOff, depAdj := g.referenceAdjacency()
	dependents := func(id int32) []int32 {
		var start int32
		if id > 0 {
			start = depOff[id-1]
		}
		return depAdj[start:depOff[id]]
	}
	done := ctx.Done()

	ready := make([]int32, 0, len(g.tasks))
	for i := range g.tasks {
		t := &g.tasks[i]
		if t.deps == 0 {
			t.Ready = t.earliest
			ready = readyPush(g.tasks, ready, int32(i))
		}
	}

	var makespan Time
	executed := 0
	for len(ready) > 0 {
		if done != nil {
			select {
			case <-done:
				return makespan, &CanceledError{
					At:        makespan,
					Executed:  executed,
					Remaining: len(g.tasks) - executed,
					Cause:     context.Cause(ctx),
				}
			default:
			}
		}
		var id int32
		id, ready = readyPop(g.tasks, ready)
		t := &g.tasks[id]
		if t.Resource != nil {
			start, end, err := t.Resource.reserve(t.Ready, t.Duration, t.ID)
			if err != nil {
				ref := err.(*refusal)
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
		for _, did := range dependents(id) {
			d := &g.tasks[did]
			if t.End > d.Ready {
				d.Ready = t.End
			}
			d.deps--
			if d.deps == 0 {
				if d.earliest > d.Ready {
					d.Ready = d.earliest
				}
				ready = readyPush(g.tasks, ready, int32(did))
			}
		}
	}
	if executed != len(g.tasks) {
		panic(fmt.Sprintf("des: dependency cycle: %d of %d tasks executed", executed, len(g.tasks)))
	}
	return makespan, nil
}

// CriticalPathReference is the former Graph.CriticalPath, which looked
// predecessors up in a map built over every edge.
func CriticalPathReference(g *Graph) []int {
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
