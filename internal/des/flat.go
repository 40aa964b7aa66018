package des

import (
	"context"
	"fmt"
)

// Flat is the simulator's one run loop and its state, kept in columns
// indexed by task id and by resource index. A Graph keeps its tasks in a
// Flat's columns; a collective schedule fills one straight from its ops.
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
	// Task columns: the caller sets Dur and Res, marks executed tasks with
	// SetDone, and derives Pending and the successor CSR from a
	// predecessor CSR with Link, or borrows them from a Skeleton with
	// Borrow; RunCtx fills Ready, Start and End.
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
	resumed  bool        // some task was marked executed by SetDone
	bound    []*Resource // per resource index: the bound Resource, or nil
	q        radixQueue

	// linkOff and linkSucc back the successor CSR Link builds. Borrow
	// points SuccOff and Succ at a Skeleton's arrays instead, so Link never
	// writes into a borrowed one.
	linkOff  []int32
	linkSucc []int32
}

// cancelPoll is how many pops RunCtx runs between two checks of its
// context: it checks before the first pop and before every cancelPoll-th.
const cancelPoll = 64

// Release drops f's references to the resources bound to it and to a
// borrowed skeleton and keeps its columns, so a Flat parked in a pool
// between runs reuses them and pins no run state.
func (f *Flat) Release() {
	clear(f.bound)
	f.SuccOff, f.Succ = nil, nil
}

// Reset sizes f for tasks tasks over resources resources: Pending, Ready,
// Start, End, FreeAt and Busy are zeroed, nothing is bound, and no task is
// executed or has an earliest bound. Dur and Res keep stale values: the
// caller sets every entry.
func (f *Flat) Reset(tasks, resources int) {
	f.Dur = resize(f.Dur, tasks)
	f.earliest = f.earliest[:0]
	f.resumed = false
	f.size(resources)
}

// size sizes every column but Dur and earliest for len(f.Dur) tasks over
// resources resources, as Reset describes.
func (f *Flat) size(resources int) {
	tasks := len(f.Dur)
	f.Res = resize(f.Res, tasks)
	f.Pending = zeroed(f.Pending, tasks)
	f.Ready = zeroed(f.Ready, tasks)
	f.Start = zeroed(f.Start, tasks)
	f.End = zeroed(f.End, tasks)
	f.FreeAt = zeroed(f.FreeAt, resources)
	f.Busy = zeroed(f.Busy, resources)
	f.bound = zeroed(f.bound, resources)
}

// resize returns s with length n, reallocating only when it lacks capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n) // grown once, kept across runs
	}
	return s[:n]
}

// zeroed is resize with every entry cleared.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n) // grown once, kept across runs
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

// SetDone marks task i as already executed, ending at end: the run will
// not queue it, and Link turns a dependency on it into an earliest-start
// bound.
func (f *Flat) SetDone(i int, end Time) {
	f.Pending[i], f.End[i] = -1, end
	f.resumed = true
}

// Link derives Pending and the successor CSR from a predecessor CSR: task
// i depends on preds[off[i]:off[i+1]]. A task marked executed (SetDone)
// waits on nothing, and a dependency on one is no wait but an
// earliest-start bound at its End. Every other task's Pending becomes its
// count of unexecuted predecessors, and its successors come out in
// ascending id order. An executed task's successor row is never read: it
// never runs. Link builds the CSR in f's own arrays, never in a borrowed
// Skeleton's.
func (f *Flat) Link(off, preds []int32) {
	n := len(f.Dur)
	pending := f.Pending[:n]
	// SuccOff carries one extra slot while counting: task p's successors
	// are counted at p+2, shift down to p+1 as they are placed, and end at
	// p+1 after the last.
	so := zeroed(f.linkOff, n+2)
	for i := range pending {
		if pending[i] >= 0 {
			pending[i] = off[i+1] - off[i]
		}
	}
	for _, p := range preds[off[0]:off[n]] {
		so[p+2]++
	}
	if f.resumed {
		for i := range pending {
			row := preds[off[i]:off[i+1]]
			if pending[i] < 0 {
				for _, p := range row {
					so[p+2]--
				}
				continue
			}
			var bound Time
			for _, p := range row {
				if pending[p] < 0 {
					pending[i]--
					bound = max(bound, f.End[p])
				}
			}
			if bound > 0 && (len(f.earliest) == 0 || bound > f.earliest[i]) {
				f.SetEarliest(i, bound)
			}
		}
	}
	for i := 2; i < len(so); i++ {
		so[i] += so[i-1]
	}
	f.linkOff, f.linkSucc = so, place(so, resize(f.linkSucc, int(so[n+1])), pending, off, preds)
	f.SuccOff, f.Succ = so[:n+1], f.linkSucc
}

// place fills a successor CSR whose row p starts at so[p+1] (the counts,
// taken at p+2, summed): it writes each task with Pending >= 0 into the
// rows of its predecessors, in ascending id order, leaving task p's row at
// succ[so[p]:so[p+1]]. It returns succ.
func place(so, succ, pending, off, preds []int32) []int32 {
	for i := range pending {
		if pending[i] < 0 {
			continue
		}
		for _, p := range preds[off[i]:off[i+1]] {
			succ[so[p+1]] = int32(i)
			so[p+1]++
		}
	}
	return succ
}

// Skeleton is the part of a run's state that depends only on the task
// graph, not on durations or resources: the pending counts and the
// successor CSR Link derives from a predecessor CSR with no task executed.
// It is immutable once built, so any number of Flats may borrow it at once
// (Borrow), each running the graph or any prefix of it.
type Skeleton struct {
	Pending []int32
	SuccOff []int32
	Succ    []int32
}

// NewSkeleton links the predecessor CSR off, preds of len(off)−1 tasks, as
// Link does for a run with no task executed, into one allocation.
func NewSkeleton(off, preds []int32) *Skeleton {
	n := len(off) - 1
	block := make([]int32, n+(n+2)+int(off[n]-off[0]))
	pending, so := block[:n:n], block[n:2*n+2:2*n+2]
	for i := range pending {
		pending[i] = off[i+1] - off[i]
	}
	for _, p := range preds[off[0]:off[n]] {
		so[p+2]++
	}
	for i := 2; i < len(so); i++ {
		so[i] += so[i-1]
	}
	succ := place(so, block[2*n+2:], pending, off, preds)
	return &Skeleton{Pending: pending, SuccOff: so[: n+1 : n+1], Succ: succ}
}

// Bytes reports what the skeleton's one allocation holds.
func (sk *Skeleton) Bytes() int64 {
	return 4 * int64(len(sk.Pending)+len(sk.SuccOff)+1+len(sk.Succ))
}

// Borrow is Link from a skeleton: f's tasks must be the skeleton's first
// len(f.Dur) tasks, none marked executed. It copies their pending counts
// into f and points SuccOff and Succ at the skeleton's arrays, which the
// run only reads. Since Link lists successors in ascending id order and
// every predecessor id is below its task's, the first n tasks' pending
// counts are the whole graph's, and RunCtx reads each successor row only
// up to its first id >= n: a prefix of the graph runs on its rows.
func (f *Flat) Borrow(sk *Skeleton) {
	n := len(f.Dur)
	copy(f.Pending[:n], sk.Pending[:n])
	f.SuccOff, f.Succ = sk.SuccOff[:n+1], sk.Succ
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
//   - ctx is cancelled: RunCtx returns a *CanceledError. It checks ctx
//     before the first pop and then before every cancelPoll-th, so a
//     cancellation stops the run within cancelPoll pops; a context whose
//     Done channel is nil skips the check.
//
// Every grant is checked as it is made: it must not end before it starts,
// which keeps each resource's grants serialized (every start is at or after
// the previous grant's end); a violation is an error, never a silent pass.
// A dependency cycle panics — it is a construction bug, not a fault. A
// successor row is read up to its first id >= len(f.Dur), the cutoff that
// lets a prefix of a borrowed skeleton run (Borrow).
func (f *Flat) RunCtx(ctx context.Context) (Time, error) {
	done := ctx.Done()
	n := len(f.Dur)
	cut := int32(n)
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
		if done != nil && executed%cancelPoll == 0 && ctx.Err() != nil {
			err = &CanceledError{
				At:        makespan,
				Executed:  executed,
				Remaining: total - executed,
				Cause:     context.Cause(ctx),
			}
			break
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
			if s >= cut {
				break
			}
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
