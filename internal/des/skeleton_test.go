package des

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// predCSR flattens per-task dependency lists into a predecessor CSR.
func predCSR(deps [][]int) (off, preds []int32) {
	off = make([]int32, 1, len(deps)+1)
	for _, row := range deps {
		for _, p := range row {
			preds = append(preds, int32(p))
		}
		off = append(off, int32(len(preds)))
	}
	return off, preds
}

// randomFlat fills f with the first n of tasks random tasks over nRes
// resources, drawn from seed, and returns the whole graph's predecessor
// CSR.
func randomFlat(f *Flat, seed int64, n int) (off, preds []int32, nRes int) {
	rng := rand.New(rand.NewSource(seed))
	nRes = rng.Intn(6) + 1
	tasks := rng.Intn(300) + 1
	deps := make([][]int, tasks)
	dur := make([]Time, tasks)
	res := make([]int32, tasks)
	for i := range deps {
		res[i] = -1
		if rng.Intn(4) != 0 {
			res[i] = int32(rng.Intn(nRes))
		}
		dur[i] = Time(rng.Intn(1000))
		for range rng.Intn(4) {
			if i > 0 {
				deps[i] = append(deps[i], rng.Intn(i))
			}
		}
		slices.Sort(deps[i])
	}
	n = min(n, tasks)
	f.Reset(n, nRes)
	copy(f.Dur, dur)
	copy(f.Res, res)
	off, preds = predCSR(deps)
	return off, preds, nRes
}

// TestBorrowMatchesLink: on random DAGs, a run on a borrowed skeleton of
// the whole graph matches a run linked over the predecessor CSR — the
// pending counts before the run and every task's Ready, Start and End,
// each resource's occupancy and the makespan after it — for the whole
// graph and for prefixes of it, which read the skeleton's successor
// rows up to their first id past the prefix.
func TestBorrowMatchesLink(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 200; seed++ {
		var probe Flat
		off, preds, _ := randomFlat(&probe, seed, 1<<30)
		sk := NewSkeleton(off, preds)
		tasks := len(off) - 1
		for _, n := range []int{1, tasks / 3, tasks / 2, tasks - 1, tasks} {
			if n < 1 {
				continue
			}
			var linked, borrowed Flat
			randomFlat(&linked, seed, n)
			randomFlat(&borrowed, seed, n)
			linked.Link(off[:n+1], preds)
			borrowed.Borrow(sk)
			if !slices.Equal(linked.Pending, borrowed.Pending) {
				t.Fatalf("seed %d, %d of %d tasks: borrowed pending counts %v, linked %v",
					seed, n, tasks, borrowed.Pending, linked.Pending)
			}
			m1, err1 := linked.RunCtx(ctx)
			m2, err2 := borrowed.RunCtx(ctx)
			if err1 != nil || err2 != nil {
				t.Fatalf("seed %d, %d tasks: %v / %v", seed, n, err1, err2)
			}
			if m1 != m2 || !slices.Equal(linked.Ready, borrowed.Ready) || !slices.Equal(linked.Start, borrowed.Start) ||
				!slices.Equal(linked.End, borrowed.End) || !slices.Equal(linked.Busy, borrowed.Busy) ||
				!slices.Equal(linked.FreeAt, borrowed.FreeAt) {
				t.Fatalf("seed %d, %d of %d tasks: the borrowed run differs from the linked one (makespan %v vs %v)",
					seed, n, tasks, m2, m1)
			}
		}
	}
}

// TestBorrowLeavesSkeletonIntact: a Flat that borrowed a skeleton and ran
// on it, then links and runs another graph, and borrows again after that,
// never writes into the skeleton's arrays, nor does Release.
func TestBorrowLeavesSkeletonIntact(t *testing.T) {
	ctx := context.Background()
	var probe Flat
	off, preds, _ := randomFlat(&probe, 1, 1<<30)
	sk := NewSkeleton(off, preds)
	want := Skeleton{Pending: slices.Clone(sk.Pending), SuccOff: slices.Clone(sk.SuccOff), Succ: slices.Clone(sk.Succ)}
	f := new(Flat)
	for seed := int64(2); seed < 12; seed++ {
		randomFlat(f, 1, 1<<30)
		f.Borrow(sk)
		if _, err := f.RunCtx(ctx); err != nil {
			t.Fatal(err)
		}
		otherOff, otherPreds, _ := randomFlat(f, seed, 1<<30)
		f.Link(otherOff, otherPreds)
		if _, err := f.RunCtx(ctx); err != nil {
			t.Fatal(err)
		}
		f.Release()
		if !reflect.DeepEqual(*sk, want) {
			t.Fatalf("after linking graph %d the borrowed skeleton changed", seed)
		}
	}
}

// stopAt is a context that reads as cancelled once the run it is passed to
// has executed at least after tasks of f: it counts f's executed tasks
// each time the run checks it.
type stopAt struct {
	context.Context
	f     *Flat
	after int
	done  chan struct{}
}

func (c *stopAt) Done() <-chan struct{} { return c.done }

func (c *stopAt) Err() error {
	executed := 0
	for i := range c.f.Dur {
		if c.f.Done(i) {
			executed++
		}
	}
	if executed >= c.after {
		return context.Canceled
	}
	return nil
}

// TestCancelStopsWithinPoll: a context cancelled mid-run, after the run
// has executed p tasks, stops it within 64 more pops, with Executed and
// Remaining exact.
func TestCancelStopsWithinPoll(t *testing.T) {
	const tasks = 1000
	deps := make([][]int, tasks)
	for i := 1; i < tasks; i++ {
		deps[i] = []int{i - 1}
	}
	off, preds := predCSR(deps)
	for _, p := range []int{0, 1, 63, 64, 65, 100, 500, 900} {
		f := new(Flat)
		f.Reset(tasks, 1)
		for i := range f.Dur {
			f.Dur[i], f.Res[i] = 10, 0
		}
		f.Link(off, preds)
		_, err := f.RunCtx(&stopAt{Context: context.Background(), f: f, after: p, done: make(chan struct{})})
		var ce *CanceledError
		if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled after %d tasks: got %v, want a *CanceledError", p, err)
		}
		executed := 0
		for i := range f.Dur {
			if f.Done(i) {
				executed++
			}
		}
		if ce.Executed < p || ce.Executed >= p+64 || ce.Executed != executed || ce.Remaining != tasks-executed {
			t.Fatalf("cancelled after %d tasks: stopped at %d executed / %d remaining (%d done), want within 64 pops",
				p, ce.Executed, ce.Remaining, executed)
		}
	}
}
