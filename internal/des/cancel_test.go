package des

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestEngineRunCtxUncancelled proves RunCtx with a background context
// drains every event: same final time, all events fired.
func TestEngineRunCtxUncancelled(t *testing.T) {
	e := NewEngine()
	fired := 0
	for i := 0; i < 10; i++ {
		e.At(Time(i*5), func() { fired++ })
	}
	end, err := e.RunCtx(context.Background())
	if err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	if end != 45 || fired != 10 {
		t.Fatalf("end=%v fired=%d, want 45/10", end, fired)
	}
}

// TestEngineRunCtxCancelMidRun is the mid-simulation abort proof: an event
// cancels the context at virtual time 50, and the very next pop observes
// it — no later event fires, the clock stops where cancellation happened,
// and the remaining events stay pending.
func TestEngineRunCtxCancelMidRun(t *testing.T) {
	e := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fired := 0
	for i := 0; i < 100; i++ {
		at := Time(i)
		if at == 50 {
			e.At(at, func() { fired++; cancel() })
		} else {
			e.At(at, func() { fired++ })
		}
	}
	end, err := e.RunCtx(ctx)
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("RunCtx after mid-run cancel returned %v, want *CanceledError", err)
	}
	if fired != 51 {
		t.Fatalf("fired %d events, want exactly 51 (through the cancelling one)", fired)
	}
	if end != 50 || ce.At != 50 {
		t.Fatalf("end=%v ce.At=%v, want both 50", end, ce.At)
	}
	if ce.Executed != 51 || ce.Remaining != 49 {
		t.Fatalf("ce = %d executed / %d remaining, want 51/49", ce.Executed, ce.Remaining)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CanceledError does not unwrap to context.Canceled: %v", err)
	}
	if e.Pending() != 49 {
		t.Fatalf("pending=%d after cancelled run, want 49", e.Pending())
	}
	// The engine stays usable: a second run drains the leftovers.
	e.RunCtx(context.Background())
	if fired != 100 || e.Pending() != 0 {
		t.Fatalf("drain run: fired=%d pending=%d, want 100/0", fired, e.Pending())
	}
}

// TestEngineRunCtxDeadline pins the deadline flavor: an already-expired
// deadline aborts before the first event and unwraps to DeadlineExceeded.
func TestEngineRunCtxDeadline(t *testing.T) {
	e := NewEngine()
	e.At(10, func() { t.Fatal("event fired under an expired deadline") })
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	_, err := e.RunCtx(ctx)
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *CanceledError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cause = %v, want context.DeadlineExceeded", ce.Cause)
	}
	if ce.Executed != 0 || ce.Remaining != 1 {
		t.Fatalf("ce = %d executed / %d remaining, want 0/1", ce.Executed, ce.Remaining)
	}
}

// TestGraphRunCtxErrCancelled proves the task-graph checkpoint: a graph run
// under a cancelled context executes nothing and reports every task
// remaining, and the typed error flows through errors.As/Is like the
// engine's.
func TestGraphRunCtxErrCancelled(t *testing.T) {
	g := NewGraph()
	r := NewResource("link")
	prev := g.Add("t0", r, 10)
	for i := 1; i < 64; i++ {
		prev = g.Add("t", r, 10, prev)
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
		a := g.Add("a", r, 7)
		b := g.Add("b", r, 5)
		g.Add("c", nil, 3, a, b)
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
	g.Add("t", nil, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := g.RunCtx(ctx)
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("RunCtx under cancellation returned %v, want *CanceledError", err)
	}
}
