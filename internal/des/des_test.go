package des

import (
	"context"
	"testing"
)

// mustRun executes g under a background context, failing the test on a
// fault.
func mustRun(tb testing.TB, g *Graph) Time {
	tb.Helper()
	m, err := g.RunCtx(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestGraphEqualReadyTimesGrantInIDOrder pins the determinism contract's
// tie-break: tasks that become ready at the same virtual time are granted a
// shared resource in id (submission) order.
func TestGraphEqualReadyTimesGrantInIDOrder(t *testing.T) {
	g := NewGraph()
	r := NewResource("r")
	for i := 0; i < 10; i++ {
		g.SetEarliest(g.Add("t", r, 1), 5)
	}
	mustRun(t, g)
	for i := 0; i < 10; i++ {
		if got, want := g.Start(i), Time(5+i); got != want {
			t.Fatalf("task %d start = %v, want %v: equal-ready tie order broken", i, got, want)
		}
	}
}

func TestResourceSerializesAndRecordsIntervals(t *testing.T) {
	r := NewResource("link")
	s1, e1, _ := r.reserve(0, 10, 1)
	s2, e2, _ := r.reserve(0, 10, 2)
	if s1 != 0 || e1 != 10 || s2 != 10 || e2 != 20 {
		t.Fatalf("reservations: [%v,%v) [%v,%v)", s1, e1, s2, e2)
	}
	if err := r.ValidateSerialized(); err != nil {
		t.Fatal(err)
	}
	if r.BusyTime() != 20 {
		t.Fatalf("busy = %v, want 20", r.BusyTime())
	}
	if u := r.Utilization(40); u != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
}

func TestResourceSlowdown(t *testing.T) {
	r := NewResource("gpu0")
	r.SetSlowdown(1.5)
	_, end, _ := r.reserve(0, 100, 1)
	if end != 150 {
		t.Fatalf("slowed duration end = %v, want 150", end)
	}
}

func TestResourceSlowdownBelowOnePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SetSlowdown(0.5) did not panic")
		}
	}()
	NewResource("x").SetSlowdown(0.5)
}

func TestGraphLinearChain(t *testing.T) {
	g := NewGraph()
	r := NewResource("r")
	a := g.Add("a", r, 10)
	b := g.Add("b", r, 20, a)
	c := g.Add("c", r, 30, b)
	end := mustRun(t, g)
	if end != 60 {
		t.Fatalf("makespan = %v, want 60", end)
	}
	if g.End(a) != 10 || g.End(b) != 30 || g.End(c) != 60 {
		t.Fatalf("ends = %v %v %v", g.End(a), g.End(b), g.End(c))
	}
}

func TestGraphResourceContention(t *testing.T) {
	// Two independent tasks on one resource serialize; on two resources they
	// run in parallel.
	g1 := NewGraph()
	r := NewResource("r")
	g1.Add("a", r, 10)
	g1.Add("b", r, 10)
	if end := mustRun(t, g1); end != 20 {
		t.Fatalf("shared resource makespan = %v, want 20", end)
	}

	g2 := NewGraph()
	g2.Add("a", NewResource("r1"), 10)
	g2.Add("b", NewResource("r2"), 10)
	if end := mustRun(t, g2); end != 10 {
		t.Fatalf("separate resources makespan = %v, want 10", end)
	}
}

func TestGraphDiamondDependency(t *testing.T) {
	g := NewGraph()
	src := g.Add("src", nil, 5)
	l := g.Add("l", NewResource("rl"), 10, src)
	rr := g.Add("r", NewResource("rr"), 20, src)
	sink := g.Add("sink", nil, 0, l, rr)
	end := mustRun(t, g)
	if end != 25 {
		t.Fatalf("makespan = %v, want 25", end)
	}
	if g.Ready(sink) != 25 {
		t.Fatalf("sink ready = %v, want 25", g.Ready(sink))
	}
}

func TestGraphFIFOGrantOrderIsDeterministic(t *testing.T) {
	// A task that becomes ready earlier must be granted the resource first,
	// even if it was added later.
	g := NewGraph()
	r := NewResource("r")
	slow := g.Add("slow-prereq", nil, 100)
	late := g.Add("late", r, 10, slow) // ready at 100
	early := g.Add("early", r, 10)     // ready at 0
	mustRun(t, g)
	if g.Start(early) != 0 {
		t.Fatalf("early start = %v, want 0", g.Start(early))
	}
	if g.Start(late) != 100 {
		t.Fatalf("late start = %v, want 100", g.Start(late))
	}
}

func TestGraphSetEarliest(t *testing.T) {
	g := NewGraph()
	a := g.Add("a", NewResource("r"), 10)
	g.SetEarliest(a, 50)
	mustRun(t, g)
	if g.Start(a) != 50 {
		t.Fatalf("start = %v, want 50", g.Start(a))
	}
}

func TestGraphCycleDetection(t *testing.T) {
	g := NewGraph()
	// A block's dependencies may point forward: a depends on b, b on a.
	g.AddBlock(2, []int32{0, 1, 2}, []int32{1, 0}, -1)
	defer func() {
		if recover() == nil {
			t.Error("cyclic graph did not panic")
		}
	}()
	g.RunCtx(context.Background())
}

func TestGraphRunTwicePanics(t *testing.T) {
	g := NewGraph()
	g.Add("a", nil, 1)
	mustRun(t, g)
	defer func() {
		if recover() == nil {
			t.Error("second run did not panic")
		}
	}()
	g.RunCtx(context.Background())
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
		{4 * Second, "4.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestPipelineMatchesAlphaBetaModel(t *testing.T) {
	// A K-chunk pipeline over a depth-d chain of links must finish in
	// (d + K - 1) * hop, the closed form behind the paper's Eq. (3).
	const (
		d   = 3
		k   = 8
		hop = Time(100)
	)
	g := NewGraph()
	links := make([]*Resource, d)
	for i := range links {
		links[i] = NewResource("link")
	}
	// task id of chunk c on link l
	ids := make([][]int, d)
	for l := 0; l < d; l++ {
		ids[l] = make([]int, k)
		for c := 0; c < k; c++ {
			var deps []int
			if l > 0 {
				deps = append(deps, ids[l-1][c])
			}
			ids[l][c] = g.Add("hop", links[l], hop, deps...)
		}
	}
	end := mustRun(t, g)
	want := Time(d+k-1) * hop
	if end != want {
		t.Fatalf("pipeline makespan = %v, want %v", end, want)
	}
	for _, r := range links {
		if err := r.ValidateSerialized(); err != nil {
			t.Fatal(err)
		}
	}
}
