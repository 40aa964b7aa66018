package des

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestGraphRunCtxDeadline pins the deadline flavor: an already-expired
// deadline aborts before the first task and unwraps to DeadlineExceeded.
func TestGraphRunCtxDeadline(t *testing.T) {
	g := NewGraph()
	g.Add(NewResource("link"), 10)
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	_, err := g.RunCtx(ctx)
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *CanceledError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cause = %v, want context.DeadlineExceeded", ce.Cause)
	}
	if ce.Executed != 0 || ce.Remaining != 1 || g.End(0) != 0 {
		t.Fatalf("ce = %d executed / %d remaining, end %v; want 0/1 and nothing run",
			ce.Executed, ce.Remaining, g.End(0))
	}
}

// TestGraphRunCtxErrCancelled proves the task-graph checkpoint: a graph run
// under a cancelled context executes nothing and reports every task
// remaining, and the typed error flows through errors.As/Is.
func TestGraphRunCtxErrCancelled(t *testing.T) {
	g := NewGraph()
	r := NewResource("link")
	prev := g.Add(r, 10)
	for i := 1; i < 64; i++ {
		prev = g.Add(r, 10, prev)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := g.RunCtx(ctx)
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *CanceledError", err)
	}
	if ce.Executed != 0 || ce.Remaining != 64 {
		t.Fatalf("ce = %d executed / %d remaining, want 0/64", ce.Executed, ce.Remaining)
	}
	if !g.Ran() {
		t.Fatal("cancelled graph must count as ran")
	}
}

// TestGraphRunCtxErrUncancelled proves a cancellable but never-cancelled
// context (checkpoint on) matches a background one (checkpoint skipped)
// exactly on an identical graph (determinism contract).
func TestGraphRunCtxErrUncancelled(t *testing.T) {
	build := func() *Graph {
		g := NewGraph()
		r := NewResource("link")
		a := g.Add(r, 7)
		b := g.Add(r, 5)
		g.Add(nil, 3, a, b)
		return g
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g1, g2 := build(), build()
	m1, err1 := g1.RunCtx(context.Background())
	m2, err2 := g2.RunCtx(ctx)
	if err1 != nil || err2 != nil {
		t.Fatalf("errs: %v / %v", err1, err2)
	}
	if m1 != m2 {
		t.Fatalf("makespan diverged: background=%v cancellable=%v", m1, m2)
	}
}

// TestGraphRunCtxCancelReturnsError pins Graph.RunCtx's contract:
// cancellation returns the typed error rather than panicking.
func TestGraphRunCtxCancelReturnsError(t *testing.T) {
	g := NewGraph()
	g.Add(nil, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := g.RunCtx(ctx)
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("RunCtx under cancellation returned %v, want *CanceledError", err)
	}
}
