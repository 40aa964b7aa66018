package des

import (
	"context"
	"testing"

	"ccube/internal/metrics"
)

// The zero-alloc budget for the DES hot path. These tests are the alloc
// regression gate CI's benchmark smoke job runs: steady-state scheduling,
// running, cancelling, and resource acquire/release must not allocate.
const steadyStateAllocBudget = 0

// TestEngineScheduleRunZeroAllocSteadyState proves that once the event pool
// and heap have grown to a workload's high-water mark, a full
// schedule-then-run cycle performs zero heap allocations.
func TestEngineScheduleRunZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	const n = 256
	fn := func() {}
	cycle := func() {
		base := e.Now()
		for i := 0; i < n; i++ {
			e.At(base+Time(i%7), fn)
		}
		e.RunCtx(context.Background())
	}
	cycle() // warm up: grow pool and heap once
	if allocs := testing.AllocsPerRun(50, cycle); allocs > steadyStateAllocBudget {
		t.Fatalf("steady-state Schedule+Run allocates %.1f/op, budget %d", allocs, steadyStateAllocBudget)
	}
}

// TestEngineReservePreallocatesZeroAlloc proves Reserve removes even the
// first-run growth: a reserved engine never allocates while scheduling up to
// the reserved count.
func TestEngineReservePreallocatesZeroAlloc(t *testing.T) {
	e := NewEngine()
	const n = 128
	e.Reserve(n)
	fn := func() {}
	cycle := func() {
		base := e.Now()
		for i := 0; i < n; i++ {
			e.At(base+Time(i), fn)
		}
		e.RunCtx(context.Background())
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs > steadyStateAllocBudget {
		t.Fatalf("reserved engine allocates %.1f/op, budget %d", allocs, steadyStateAllocBudget)
	}
}

// TestEngineCancelZeroAllocSteadyState covers the cancel path: cancelled
// events are dropped at pop time and recycled without allocating.
func TestEngineCancelZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	const n = 64
	fn := func() {}
	cycle := func() {
		base := e.Now()
		for i := 0; i < n; i++ {
			h := e.At(base+Time(i), fn)
			if i%2 == 0 {
				h.Cancel()
			}
		}
		e.RunCtx(context.Background())
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs > steadyStateAllocBudget {
		t.Fatalf("steady-state cancel cycle allocates %.1f/op, budget %d", allocs, steadyStateAllocBudget)
	}
}

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

// TestEngineRunCtxZeroAllocSteadyState extends the alloc gate to the
// cancellation checkpoint: RunCtx over a live (cancellable, never
// cancelled) context performs the per-pop Done check on every event and
// must still be allocation-free in steady state.
func TestEngineRunCtxZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 256
	fn := func() {}
	cycle := func() {
		base := e.Now()
		for i := 0; i < n; i++ {
			e.At(base+Time(i%7), fn)
		}
		if _, err := e.RunCtx(ctx); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm up: grow pool and heap once
	if allocs := testing.AllocsPerRun(50, cycle); allocs > steadyStateAllocBudget {
		t.Fatalf("steady-state RunCtx allocates %.1f/op, budget %d (context check must be free)", allocs, steadyStateAllocBudget)
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
		g.Reserve(n)
		prev := -1
		for i := 0; i < n; i++ {
			if prev < 0 {
				prev = g.Add("t", nil, 1)
			} else {
				prev = g.Add("t", nil, 1, prev)
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

// allocCycle is the engine+resource workload the metrics-gating tests below
// share: schedule/run a batch of events (half cancelled) and reserve/Reset a
// resource — every instrumented hot path in one loop.
func allocCycle(t *testing.T, e *Engine, r *Resource) {
	t.Helper()
	const n = 128
	fn := func() {}
	base := e.Now()
	for i := 0; i < n; i++ {
		h := e.At(base+Time(i%7), fn)
		if i%2 == 0 {
			h.Cancel()
		}
	}
	e.RunCtx(context.Background())
	for i := 0; i < n; i++ {
		if _, _, err := r.reserve(Time(i), 10, i); err != nil {
			t.Fatal(err)
		}
	}
	r.Reset()
}

// TestMetricsRegisteredDisabledZeroAlloc is the observability half of the
// alloc gate: the des instruments are registered at package init, so this
// asserts explicitly that carrying them — disabled, the default — keeps the
// hot path at zero allocations.
func TestMetricsRegisteredDisabledZeroAlloc(t *testing.T) {
	if metrics.Default.Enabled() {
		t.Fatal("metrics.Default unexpectedly enabled at test start")
	}
	e := NewEngine()
	r := NewResource("link")
	allocCycle(t, e, r) // warm up: grow pool, heap, and interval log once
	allocs := testing.AllocsPerRun(50, func() { allocCycle(t, e, r) })
	if allocs > steadyStateAllocBudget {
		t.Fatalf("metrics registered-but-disabled: %.1f allocs/op, budget %d",
			allocs, steadyStateAllocBudget)
	}
}

// TestMetricsEnabledZeroAlloc proves the stronger property: even with
// collection on, the counters are preallocated atomics, so the steady-state
// hot path still does not allocate.
func TestMetricsEnabledZeroAlloc(t *testing.T) {
	metrics.Default.Enable()
	t.Cleanup(func() {
		metrics.Default.Disable()
		metrics.Default.Reset()
	})
	e := NewEngine()
	r := NewResource("link")
	allocCycle(t, e, r)
	allocs := testing.AllocsPerRun(50, func() { allocCycle(t, e, r) })
	if allocs > steadyStateAllocBudget {
		t.Fatalf("metrics enabled: %.1f allocs/op, budget %d", allocs, steadyStateAllocBudget)
	}
	if mEventsScheduled.Value() == 0 || mResourceBusyNS.Value() == 0 {
		t.Fatal("enabled metrics recorded nothing — instrumentation not wired")
	}
}

// TestEventHandleSurvivesRecycling pins the Cancel-after-fire contract: a
// handle to a fired event must be inert even after the engine reuses the
// event's storage for a new event.
func TestEventHandleSurvivesRecycling(t *testing.T) {
	e := NewEngine()
	firstRan := false
	stale := e.At(1, func() { firstRan = true })
	e.RunCtx(context.Background())
	if !firstRan {
		t.Fatal("first event did not run")
	}
	if stale.Pending() {
		t.Fatal("fired event still reports Pending")
	}
	// The pool guarantees the next event reuses the fired event's record.
	secondRan := false
	fresh := e.At(e.Now()+1, func() { secondRan = true })
	if fresh.ev != stale.ev {
		t.Fatalf("pool did not recycle the fired event's record")
	}
	stale.Cancel() // must NOT cancel the unrelated second event
	e.RunCtx(context.Background())
	if !secondRan {
		t.Fatal("stale Cancel killed a recycled event — generation guard broken")
	}
	if stale.At() != 1 {
		t.Fatalf("stale handle At() = %v, want 1", stale.At())
	}
}

// TestCancelledEventRecycledAtPop asserts the lazy-drop path returns
// cancelled events to the pool when their fire time arrives, instead of
// leaking them.
func TestCancelledEventRecycledAtPop(t *testing.T) {
	e := NewEngine()
	h := e.At(5, func() { t.Fatal("cancelled event fired") })
	h.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("pending = %d before pop, want 1 (lazy cancellation)", e.Pending())
	}
	e.RunCtx(context.Background())
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after run, want 0", e.Pending())
	}
	if len(e.pool) != 1 {
		t.Fatalf("pool = %d after run, want 1 recycled event", len(e.pool))
	}
	if e.Fired() != 0 {
		t.Fatalf("fired = %d, want 0: cancelled events must not count", e.Fired())
	}
	if e.Now() != 0 {
		t.Fatalf("now = %v, want 0: dropping a cancelled event must not advance time", e.Now())
	}
}

// TestZeroEventHandleIsInert guards the documented zero-value behavior.
func TestZeroEventHandleIsInert(t *testing.T) {
	var h Event
	h.Cancel() // must not panic
	if h.Pending() {
		t.Fatal("zero handle reports Pending")
	}
	if h.At() != 0 {
		t.Fatalf("zero handle At() = %v", h.At())
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
	f := new(Flat)
	cycle := func() {
		bound.Reset()
		f.Reset(links*chunks+1, links)
		f.Bind(0, bound)
		for l := 0; l < links; l++ {
			for c := 0; c < chunks; c++ {
				id := l*chunks + c
				f.Dur[id], f.Res[id], f.Pending[id] = Time(10+c%3), int32(l), 0
				if l > 0 {
					f.Pending[id] = 1
					f.CountSucc(id - chunks)
				}
			}
		}
		join := links * chunks
		f.Dur[join], f.Res[join], f.Pending[join] = 0, -1, chunks
		for c := 0; c < chunks; c++ {
			f.CountSucc((links-1)*chunks + c)
		}
		f.Link()
		for id := chunks; id < join; id++ {
			f.AddSucc(id-chunks, id)
		}
		for c := 0; c < chunks; c++ {
			f.AddSucc((links-1)*chunks+c, join)
		}
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
