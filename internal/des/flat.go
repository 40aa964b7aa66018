package des

import (
	"context"
	"fmt"
	"sync"
)

// Flat is the simulator's one run loop and its state, kept in columns
// indexed by task id and by resource index. Graph.RunCtx compiles its tasks
// into a Flat; a collective schedule fills one straight from its ops.
//
// Task i occupies resource Res[i] (−1 for none) for Dur[i] once its
// Pending[i] predecessors have ended; its successors are
// Succ[SuccOff[i]:SuccOff[i+1]]. A task with Pending[i] < 0 at the start of
// a run counts as already executed: it is never queued and its End stays
// as the caller set it. Resource k is free from FreeAt[k]; Busy[k] sums the
// occupancy the run grants on it.
//
// A resource bound to a *Resource (Bind) is read for its slowdown and
// failure plan and logs every grant as an Interval; an unbound one costs a
// compare and an add per grant. Reset keeps every backing array, so a warm
// Flat runs without allocating.
type Flat struct {
	// Task columns: the caller sets Dur, Res and Pending and builds the
	// successor CSR with CountSucc, Link and AddSucc; RunCtx fills Ready,
	// Start and End.
	Dur     []Time
	Res     []int32
	Pending []int32
	SuccOff []int32
	Succ    []int32
	Ready   []Time
	Start   []Time
	End     []Time

	// Resource columns.
	FreeAt []Time
	Busy   []Time

	earliest []Time      // lower bounds on readiness; empty when no task has one
	bound    []*Resource // per resource index: the bound Resource, or nil
	q        radixQueue
}

var flatPool = sync.Pool{New: func() any { return new(Flat) }}

// GetFlat returns a Flat from a process-wide pool; PutFlat returns it. A
// pooled Flat keeps the columns its last run grew, so a caller that runs
// many schedules reuses them instead of allocating per run.
func GetFlat() *Flat { return flatPool.Get().(*Flat) }

// PutFlat returns f to the pool. The caller must not touch f afterwards.
func PutFlat(f *Flat) {
	clear(f.bound) // drop resource references so the pool pins no run state
	flatPool.Put(f)
}

// Reset sizes f for tasks tasks over resources resources: Ready, Start,
// End, FreeAt, Busy and the CSR offsets are zeroed, nothing is bound, and
// no task has an earliest bound. Dur, Res and Pending keep stale values:
// the caller sets every entry.
func (f *Flat) Reset(tasks, resources int) {
	f.Dur = resize(f.Dur, tasks)
	f.Res = resize(f.Res, tasks)
	f.Pending = resize(f.Pending, tasks)
	f.Ready = zeroed(f.Ready, tasks)
	f.Start = zeroed(f.Start, tasks)
	f.End = zeroed(f.End, tasks)
	// SuccOff carries one extra slot while counting; Link trims it.
	f.SuccOff = zeroed(f.SuccOff, tasks+2)
	f.Succ = f.Succ[:0]
	f.FreeAt = zeroed(f.FreeAt, resources)
	f.Busy = zeroed(f.Busy, resources)
	f.bound = zeroed(f.bound, resources)
	f.earliest = f.earliest[:0]
}

// resize returns s with length n, reallocating only when it lacks capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n) // prealloc: grown once, kept across runs
	}
	return s[:n]
}

// zeroed is resize with every entry cleared.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n) // prealloc: grown once, kept across runs
	}
	s = s[:n]
	clear(s)
	return s
}

// Bind attaches r to resource index k: the run starts k at r's FreeAt,
// applies r's slowdown and failure plan, logs every grant on r and leaves
// r's FreeAt at the run's last grant.
func (f *Flat) Bind(k int, r *Resource) {
	f.bound[k] = r
	f.FreeAt[k] = r.freeAt
}

// SetEarliest bounds task i's ready time from below, independent of its
// dependencies (an external arrival time).
func (f *Flat) SetEarliest(i int, t Time) {
	if len(f.earliest) == 0 {
		f.earliest = zeroed(f.earliest, len(f.Dur))
	}
	f.earliest[i] = t
}

// CountSucc counts one successor edge out of task pred. Count every edge,
// call Link, then add every edge with AddSucc.
func (f *Flat) CountSucc(pred int) { f.SuccOff[pred+2]++ }

// Link turns the counts into CSR offsets and sizes Succ for the edges.
func (f *Flat) Link() {
	off := f.SuccOff
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	f.Succ = resize(f.Succ, int(off[len(off)-1]))
	f.SuccOff = off[:len(off)-1]
}

// AddSucc records succ as the next successor of pred. After the last edge,
// task i's successors are Succ[SuccOff[i]:SuccOff[i+1]] in the order added.
func (f *Flat) AddSucc(pred, succ int) {
	f.Succ[f.SuccOff[pred+1]] = int32(succ)
	f.SuccOff[pred+1]++
}

// Done reports whether task i completed in the last run.
func (f *Flat) Done(i int) bool { return f.Pending[i] < 0 }

// RunCtx executes the tasks and returns the makespan (max End of the tasks
// it ran). Ready tasks are granted in (ready time, id) order: a task
// becomes ready when its last predecessor ends (or at its earliest bound,
// if later) and starts when its resource is also free. It stops early in
// two ways:
//
//   - a bound resource's failure plan refuses a grant: RunCtx returns the
//     makespan so far with a *FaultError naming the task (its Label is left
//     for the caller to fill in);
//   - ctx is cancelled: RunCtx returns a *CanceledError. The checkpoint sits
//     at task-pop granularity; a context whose Done channel is nil skips it.
//
// Every grant is checked as it is made: it must not end before it starts,
// which keeps each resource's grants serialized (every start is at or after
// the previous grant's end); a violation is an error, never a silent pass.
// A dependency cycle panics — it is a construction bug, not a fault.
func (f *Flat) RunCtx(ctx context.Context) (Time, error) {
	done := ctx.Done()
	n := len(f.Dur)
	q := &f.q
	q.reset(n)
	already := 0
	for i := 0; i < n; i++ {
		switch {
		case f.Pending[i] == 0:
			if len(f.earliest) > 0 {
				f.Ready[i] = f.earliest[i]
			}
			q.push(int32(i), f.Ready[i])
		case f.Pending[i] < 0:
			already++
		}
	}
	total := n - already

	var makespan, busy Time
	executed := 0
	maxDepth := q.n
	var err error
	for q.n > 0 {
		if done != nil {
			select {
			case <-done:
				err = &CanceledError{
					At:        makespan,
					Executed:  executed,
					Remaining: total - executed,
					Cause:     context.Cause(ctx),
				}
			default:
			}
			if err != nil {
				break
			}
		}
		if q.n > maxDepth {
			maxDepth = q.n
		}
		id := q.pop(f.Ready)
		start := f.Ready[id]
		d := f.Dur[id]
		if k := f.Res[id]; k >= 0 {
			if free := f.FreeAt[k]; free > start {
				start = free
			}
			if r := f.bound[k]; r != nil {
				var ok bool
				if d, ok = r.grant(start, d, int(id)); !ok {
					err = &FaultError{
						Faults: []TaskFault{{
							TaskID:   int(id),
							Resource: r.Name,
							At:       start,
							FailedAt: r.failAt,
						}},
						Executed: executed,
						Total:    total,
					}
					break
				}
			}
			if start+d < start {
				err = f.serialError(int(id), int(k), start, d)
				break
			}
			f.FreeAt[k] = start + d
			f.Busy[k] += d
			busy += d
		}
		end := start + d
		f.Start[id], f.End[id] = start, end
		f.Pending[id] = -1
		executed++
		if end > makespan {
			makespan = end
		}
		for _, s := range f.Succ[f.SuccOff[id]:f.SuccOff[id+1]] {
			if end > f.Ready[s] {
				f.Ready[s] = end
			}
			f.Pending[s]--
			if f.Pending[s] == 0 {
				if len(f.earliest) > 0 && f.earliest[s] > f.Ready[s] {
					f.Ready[s] = f.earliest[s]
				}
				q.push(s, f.Ready[s])
			}
		}
	}
	mTasksExecuted.Add(int64(executed))
	mReadyDepthMax.SetMax(float64(maxDepth))
	mResourceBusyNS.Add(int64(busy))
	if err == nil && executed != total {
		panic(fmt.Sprintf("des: dependency cycle: %d of %d tasks executed", executed, total))
	}
	return makespan, err
}

// serialError reports a grant on resource k that would end before it
// starts (a duration overflow), which would let the next grant overlap.
func (f *Flat) serialError(id, k int, start, d Time) error {
	name := fmt.Sprintf("#%d", k)
	if r := f.bound[k]; r != nil {
		name = r.Name
	}
	return fmt.Errorf("des: resource %s: task %d granted at %v for %v ends before it starts; grants would overlap",
		name, id, start, d)
}
