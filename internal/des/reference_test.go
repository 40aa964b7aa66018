package des

import (
	"context"
	"fmt"
)

// This file keeps the task-graph engine the one run loop (Flat.RunCtx)
// replaced: a binary ready heap over per-task state, a successor CSR
// compiled per run, and per-reservation Resource bookkeeping. It reads a
// Graph's task columns and predecessor CSR and writes its outcome into the
// same Ready, Start and End columns (and marks executed tasks in Pending),
// so the Graph accessors read either engine's run. It is the reference the
// differential tests (differential_test.go) hold the run loop to, Start,
// End and Ready of every task and every FaultError and CanceledError field
// included.

// RunReference runs g on the reference engine. Like RunCtx it may be
// called once per graph.
func RunReference(ctx context.Context, g *Graph) (Time, error) { return g.referenceRunCtx(ctx) }

// Done reports whether task id completed in g's run.
func Done(g *Graph, id int) bool { return g.f.Done(id) }

// CloneUnrun returns a copy of g's structure — tasks, durations, earliest
// bounds and dependencies — that has not run, over fresh copies of its
// resources that keep their slowdown and failure plans but no occupancy, as
// they were before a run of fresh resources. It lets a test rerun a graph
// some package built and ran on the reference engine.
func CloneUnrun(g *Graph) *Graph {
	clones := map[*Resource]*Resource{}
	out := NewGraph()
	for i, src := range g.res {
		var r *Resource
		if src != nil {
			if r = clones[src]; r == nil {
				r = &Resource{Name: src.Name, slowdownPPM: src.slowdownPPM,
					breaks: append([]slowBreak(nil), src.breaks...), failAt: src.failAt, hasFail: src.hasFail}
				clones[src] = r
			}
		}
		out.Add(r, g.f.Dur[i])
		if len(g.f.earliest) > 0 && g.f.earliest[i] != 0 {
			out.SetEarliest(i, g.f.earliest[i])
		}
	}
	out.namer = g.namer
	out.predOff = append(out.predOff[:0], g.predOff...)
	out.preds = append(out.preds, g.preds...)
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

// referenceAdjacency compiles the predecessor CSR into successor CSR
// arrays: a counting sort by predecessor, stable in task order. Dependents
// of task i are depAdj[depOff[i-1]:depOff[i]] (depOff[-1] treated as 0).
func (g *Graph) referenceAdjacency() (depOff, depAdj []int32) {
	depOff = make([]int32, len(g.res))
	for _, p := range g.preds {
		depOff[p]++
	}
	var sum int32
	for i := range depOff {
		c := depOff[i]
		depOff[i] = sum // start offset of task i
		sum += c
	}
	depAdj = make([]int32, len(g.preds))
	for i := range g.res {
		for _, p := range g.preds[g.predOff[i]:g.predOff[i+1]] {
			depAdj[depOff[p]] = int32(i)
			depOff[p]++
		}
	}
	return depOff, depAdj
}

// refTask is the reference engine's per-task run state.
type refTask struct {
	Ready Time
	deps  int // dependencies not yet ended
}

func readyLess(tasks []refTask, a, b int32) bool {
	if tasks[a].Ready != tasks[b].Ready {
		return tasks[a].Ready < tasks[b].Ready
	}
	return a < b
}

func readyPush(tasks []refTask, h []int32, id int32) []int32 {
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

func readyPop(tasks []refTask, h []int32) (int32, []int32) {
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
	earliest := func(i int) Time {
		if len(g.f.earliest) == 0 {
			return 0
		}
		return g.f.earliest[i]
	}
	n := len(g.res)
	g.f.size(0)
	// Size the interval logs as Graph.RunCtx does, so both engines leave
	// them alike.
	count := map[*Resource]int{}
	for _, r := range g.res {
		if r != nil {
			count[r]++
		}
	}
	for r, c := range count {
		r.Prealloc(c)
	}
	tasks := make([]refTask, n)
	ready := make([]int32, 0, n)
	for i := range tasks {
		t := &tasks[i]
		t.deps = int(g.predOff[i+1] - g.predOff[i])
		if t.deps == 0 {
			t.Ready = earliest(i)
			g.f.Ready[i] = t.Ready
			ready = readyPush(tasks, ready, int32(i))
		}
	}
	// record writes a task's outcome into the graph's columns.
	record := func(id int32, start, end Time) {
		g.f.Ready[id], g.f.Start[id], g.f.End[id] = tasks[id].Ready, start, end
		g.f.Pending[id] = -1
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
					Remaining: n - executed,
					Cause:     context.Cause(ctx),
				}
			default:
			}
		}
		var id int32
		id, ready = readyPop(tasks, ready)
		t := &tasks[id]
		var start, end Time
		if r := g.res[id]; r != nil {
			var err error
			start, end, err = r.reserve(t.Ready, g.f.Dur[id], int(id))
			if err != nil {
				ref := err.(*refusal)
				return makespan, &FaultError{
					Faults: []TaskFault{{
						TaskID:   int(id),
						Label:    g.Label(int(id)),
						Resource: ref.Resource,
						At:       ref.At,
						FailedAt: ref.FailedAt,
					}},
					Executed: executed,
					Total:    n,
				}
			}
		} else {
			start = t.Ready
			end = start + g.f.Dur[id]
		}
		record(id, start, end)
		executed++
		if end > makespan {
			makespan = end
		}
		for _, did := range dependents(id) {
			d := &tasks[did]
			if end > d.Ready {
				d.Ready = end
			}
			// Ready is visible before the dependent runs, as it was in
			// the per-task state the engine used to keep.
			g.f.Ready[did] = d.Ready
			d.deps--
			if d.deps == 0 {
				if e := earliest(int(did)); e > d.Ready {
					d.Ready = e
					g.f.Ready[did] = e
				}
				ready = readyPush(tasks, ready, did)
			}
		}
	}
	if executed != n {
		panic(fmt.Sprintf("des: dependency cycle: %d of %d tasks executed", executed, n))
	}
	return makespan, nil
}
