package des

import (
	"context"
	"testing"

	"ccube/internal/metrics"
)

// The zero-alloc budget for the DES hot path. These tests are the alloc
// regression gate CI's benchmark smoke job runs: a warm run through the one
// run loop, resource grants and metrics publishing must not allocate.
const steadyStateAllocBudget = 0

// TestResourceReserveResetZeroAllocSteadyState covers resource
// acquire/release: after the interval log has grown once, reserve+Reset
// cycles are allocation-free.
func TestResourceReserveResetZeroAllocSteadyState(t *testing.T) {
	r := NewResource("link")
	const n = 128
	cycle := func() {
		for i := 0; i < n; i++ {
			if _, _, err := r.reserve(Time(i), 10, i); err != nil {
				t.Fatal(err)
			}
		}
		r.Reset()
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs > steadyStateAllocBudget {
		t.Fatalf("steady-state reserve/Reset allocates %.1f/op, budget %d", allocs, steadyStateAllocBudget)
	}
}

// TestResourcePreallocZeroAllocFirstRun proves Prealloc removes the first
// run's growth allocations too.
func TestResourcePreallocZeroAllocFirstRun(t *testing.T) {
	r := NewResource("link")
	const n = 64
	r.Prealloc(n)
	cycle := func() {
		for i := 0; i < n; i++ {
			if _, _, err := r.reserve(Time(i), 10, i); err != nil {
				t.Fatal(err)
			}
		}
		r.Reset()
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs > steadyStateAllocBudget {
		t.Fatalf("preallocated resource allocates %.1f/op, budget %d", allocs, steadyStateAllocBudget)
	}
}

// TestGraphRunCtxErrZeroExtraAlloc pins that the task-graph checkpoint adds
// no per-task allocations: an identical graph run with a live context
// allocates exactly as much as with a background one, whose nil Done skips
// the checkpoint (construction allocations only, measured as the delta
// between the two paths being zero).
func TestGraphRunCtxErrZeroExtraAlloc(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 128
	build := func() *Graph {
		g := NewGraph()
		prev := -1
		for i := 0; i < n; i++ {
			if prev < 0 {
				prev = g.Add(nil, 1)
			} else {
				prev = g.Add(nil, 1, prev)
			}
		}
		return g
	}
	plain := testing.AllocsPerRun(20, func() {
		if _, err := build().RunCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	withCtx := testing.AllocsPerRun(20, func() {
		if _, err := build().RunCtx(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if withCtx > plain {
		t.Fatalf("live-context run allocates %.1f/op vs background %.1f/op; the context check must add 0", withCtx, plain)
	}
}

// pipelineCycle returns the run the metrics-gating tests below share: a
// Reset graph re-populated with a links x chunks pipeline over reused
// resources and run through Graph.RunCtx, so one call covers graph
// compilation, the Flat run loop, resource grants and the run's metrics
// publication.
func pipelineCycle(t *testing.T, links, chunks int) func() {
	g := NewGraph()
	res := make([]*Resource, links)
	for l := range res {
		res[l] = NewResource("link")
	}
	prev := make([]int, chunks)
	return func() {
		g.Reset()
		for _, r := range res {
			r.Reset()
		}
		for l, r := range res {
			for c := range prev {
				if l == 0 {
					prev[c] = g.Add(r, 10)
				} else {
					prev[c] = g.Add(r, 10, prev[c])
				}
			}
		}
		if _, err := g.RunCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMetricsRegisteredDisabledZeroAlloc is the observability half of the
// alloc gate: the des instruments are registered at package init, so this
// asserts explicitly that carrying them — disabled, the default — keeps a
// warm run at zero allocations and records nothing.
func TestMetricsRegisteredDisabledZeroAlloc(t *testing.T) {
	if metrics.Default.Enabled() {
		t.Fatal("metrics.Default unexpectedly enabled at test start")
	}
	cycle := pipelineCycle(t, 4, 32)
	cycle() // warm up: grow the task store, the Flat and the interval logs once
	tasks, busy := mTasksExecuted.Value(), mResourceBusyNS.Value()
	allocs := testing.AllocsPerRun(50, cycle)
	if allocs > steadyStateAllocBudget {
		t.Fatalf("metrics registered-but-disabled: %.1f allocs/op, budget %d",
			allocs, steadyStateAllocBudget)
	}
	if mTasksExecuted.Value() != tasks || mResourceBusyNS.Value() != busy {
		t.Fatal("disabled metrics recorded run-loop work")
	}
}

// TestMetricsEnabledZeroAlloc proves the stronger property: even with
// collection on, the counters are preallocated atomics, so a warm run still
// does not allocate, and each run publishes exactly its tasks and its
// granted occupancy.
func TestMetricsEnabledZeroAlloc(t *testing.T) {
	metrics.Default.Enable()
	t.Cleanup(func() {
		metrics.Default.Disable()
		metrics.Default.Reset()
	})
	const links, chunks = 4, 32
	cycle := pipelineCycle(t, links, chunks)
	cycle()
	allocs := testing.AllocsPerRun(50, cycle)
	if allocs > steadyStateAllocBudget {
		t.Fatalf("metrics enabled: %.1f allocs/op, budget %d", allocs, steadyStateAllocBudget)
	}
	tasks, busy := mTasksExecuted.Value(), mResourceBusyNS.Value()
	cycle()
	if got := mTasksExecuted.Value() - tasks; got != links*chunks {
		t.Errorf("one run published %d executed tasks, want %d", got, links*chunks)
	}
	if got := mResourceBusyNS.Value() - busy; got != links*chunks*10 {
		t.Errorf("one run published %d busy ns, want %d", got, links*chunks*10)
	}
}

// TestFlatRunZeroAllocSteadyState is the alloc gate for the one run loop: a
// warm Flat — columns, successor CSR and radix queue already grown — refilled
// and run again over a cancellable context allocates nothing, with a bound
// resource (slowdown plan, occupancy log) and with unbound ones, and with
// metrics collection on.
func TestFlatRunZeroAllocSteadyState(t *testing.T) {
	metrics.Default.Enable()
	t.Cleanup(func() {
		metrics.Default.Disable()
		metrics.Default.Reset()
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const links, chunks = 4, 64
	bound := NewResource("link0")
	bound.SetSlowdownAt(500, 2)
	bound.Prealloc(chunks)
	// The predecessor CSR: each hop waits for the same chunk on the link
	// before, and a join waits for every chunk on the last link.
	join := links * chunks
	off := make([]int32, 0, join+2)
	var preds []int32
	for id := 0; id < join; id++ {
		off = append(off, int32(len(preds)))
		if id >= chunks {
			preds = append(preds, int32(id-chunks))
		}
	}
	off = append(off, int32(len(preds)))
	for c := 0; c < chunks; c++ {
		preds = append(preds, int32((links-1)*chunks+c))
	}
	off = append(off, int32(len(preds)))
	f := new(Flat)
	cycle := func() {
		bound.Reset()
		f.Reset(join+1, links)
		f.Bind(0, bound)
		for l := 0; l < links; l++ {
			for c := 0; c < chunks; c++ {
				id := l*chunks + c
				f.Dur[id], f.Res[id] = Time(10+c%3), int32(l)
			}
		}
		f.Dur[join], f.Res[join] = 0, -1
		f.Link(off, preds)
		f.SetEarliest(3, 40)
		if _, err := f.RunCtx(ctx); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm up: grow the columns, the queue and the interval log once
	if allocs := testing.AllocsPerRun(50, cycle); allocs > steadyStateAllocBudget {
		t.Fatalf("warm Flat run allocates %.1f/op, budget %d", allocs, steadyStateAllocBudget)
	}
	if len(bound.Busy()) != chunks || mTasksExecuted.Value() == 0 {
		t.Fatalf("run logged %d grants on the bound link, executed %d tasks", len(bound.Busy()), mTasksExecuted.Value())
	}
}

// TestGraphBlockZeroAllocSteadyState is the alloc gate for the way a
// schedule joins a graph — one AddBlock, then Set on each of its rows —
// and for an external arrival bound (SetEarliest): a Reset graph
// re-populated the same way and run again allocates nothing.
func TestGraphBlockZeroAllocSteadyState(t *testing.T) {
	const links, chunks = 4, 32
	// The block is a links x chunks pipeline: row l*chunks+c waits for the
	// same chunk on the link before, and the first link's rows on the root.
	off := make([]int32, 0, links*chunks+1)
	var preds []int32
	for id := 0; id < links*chunks; id++ {
		off = append(off, int32(len(preds)))
		if id >= chunks {
			preds = append(preds, int32(id-chunks))
		}
	}
	off = append(off, int32(len(preds)))
	res := make([]*Resource, links)
	for l := range res {
		res[l] = NewResource("link")
	}
	g := NewGraph()
	var makespan Time
	cycle := func() {
		g.Reset()
		for _, r := range res {
			r.Reset()
		}
		root := g.Add(nil, 5)
		g.SetEarliest(root, 100)
		base := g.AddBlock(links*chunks, off, preds, root)
		for l, r := range res {
			for c := 0; c < chunks; c++ {
				g.Set(base+l*chunks+c, r, 10)
			}
		}
		var err error
		if makespan, err = g.RunCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm up: grow the graph's columns, its CSR and the interval logs once
	if allocs := testing.AllocsPerRun(50, cycle); allocs > steadyStateAllocBudget {
		t.Fatalf("warm block graph run allocates %.1f/op, budget %d", allocs, steadyStateAllocBudget)
	}
	if want := Time(105 + (chunks+links-1)*10); makespan != want {
		t.Fatalf("makespan = %v, want %v", makespan, want)
	}
}
