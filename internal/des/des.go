// Package des implements a deterministic discrete-event simulation engine.
//
// The engine is the timing substrate for every simulated experiment in this
// repository: collective-communication schedules, training-iteration
// pipelines, and scale-out studies all compile down to a dependency graph of
// Tasks executed on serialized Resources (links, GPU compute streams).
//
// Time is virtual and measured in integer nanoseconds, so runs are exactly
// reproducible: two executions of the same graph yield bit-identical
// timelines regardless of host load.
//
// The hot path is allocation-free in steady state: fired (and cancelled)
// events are recycled onto a per-engine free list, the event heap reuses its
// backing array, and At/After only allocate while the pool is still growing
// toward the engine's high-water mark. Regression tests assert this with
// testing.AllocsPerRun, and cmd/ccube-lint's des-hot-alloc rule flags any
// unannotated make/append that sneaks into the hot functions.
package des

import (
	"context"
	"fmt"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Common durations, for readability in model code and tests.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts a virtual time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts a virtual time to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis converts a virtual time to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// event is the engine-internal record backing a scheduled callback. Events
// are pooled: after an event fires (or its cancellation is collected at pop
// time) the record returns to the engine's free list and its generation is
// bumped, which inertly invalidates every outstanding Event handle to it.
type event struct {
	at       Time
	seq      uint64 // tie-breaker preserving schedule order at equal times
	gen      uint64 // incremented on recycle; guards stale handles
	fn       func()
	canceled bool
}

// Event is a cancellable handle to a scheduled callback, returned by
// At/After. It is a small value; copying it is cheap and safe.
//
// Cancel contract: cancelling is only meaningful while the event is pending.
// Once the event has fired (or a completed RunCtx has drained it), the engine
// recycles its storage for future events; the handle detects this through a
// generation check, so Cancel after fire is always a safe no-op — it can
// never cancel an unrelated event that happened to reuse the storage. The
// zero Event is inert.
type Event struct {
	ev  *event
	gen uint64
	at  Time
}

// Cancel prevents a pending event from firing. The event's storage is
// reclaimed lazily: it stays in the heap until its fire time, at which point
// the engine drops it without running the callback and recycles it into the
// pool. Cancelling an event that has already fired (or cancelling twice) is
// a no-op; see the Event type for the exact contract.
func (h Event) Cancel() {
	if h.ev != nil && h.ev.gen == h.gen {
		h.ev.canceled = true
	}
}

// At reports the virtual time the event was scheduled for. It stays valid
// after the event fires.
func (h Event) At() Time { return h.at }

// Pending reports whether the event is still scheduled: not yet fired and
// not cancelled.
func (h Event) Pending() bool {
	return h.ev != nil && h.ev.gen == h.gen && !h.ev.canceled
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all callbacks run on the goroutine that calls RunCtx.
type Engine struct {
	now    Time
	events []*event // binary min-heap by (at, seq)
	pool   []*event // recycled records, reused by At/After
	seq    uint64
	fired  int

	// Batch-drain scratch, reused across runs (see popRun). The collective
	// schedules this engine executes are bulk-synchronous: many events share
	// a timestamp, and draining the whole run with one round of sift-downs
	// amortizes the heap fix-ups the serial pop pays per event.
	batch []seqEntry // current run of equal-timestamp events, fired in seq order
	holes []int32    // BFS worklist = heap slots vacated by the drain, ascending
}

// seqEntry pairs a drained event with its seq so the batch sort compares a
// contiguous scratch array instead of chasing event pointers.
type seqEntry struct {
	seq uint64
	ev  *event
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine { return &Engine{} }

// Reserve preallocates capacity for n simultaneously pending events (heap
// slots plus pooled records), so a sized workload schedules with zero
// allocations from the first event on.
func (e *Engine) Reserve(n int) {
	if cap(e.events) < n {
		grown := make([]*event, len(e.events), n) // prealloc: sizing the heap once
		copy(grown, e.events)
		e.events = grown
	}
	if cap(e.pool) < n {
		grown := make([]*event, len(e.pool), n) // prealloc: sizing the pool once
		copy(grown, e.pool)
		e.pool = grown
	}
	for len(e.pool)+len(e.events) < n {
		e.pool = append(e.pool, &event{}) // prealloc: filling the reserved pool
	}
	if cap(e.batch) < n {
		e.batch = make([]seqEntry, 0, n) // prealloc: sizing the drain batch once
	}
	if cap(e.holes) < n {
		e.holes = make([]int32, 0, n) // prealloc: sizing the drain hole list once
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far (cancelled events do
// not count).
func (e *Engine) Fired() int { return e.fired }

// Pending reports how many events are scheduled but not yet executed.
// Cancelled events still count until their storage is collected at pop time.
func (e *Engine) Pending() int { return len(e.events) }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would silently corrupt causality in a model.
func (e *Engine) At(t Time, fn func()) Event {
	if t < e.now {
		panic(fmt.Sprintf("des: scheduling at %v before now %v", t, e.now))
	}
	mEventsScheduled.Inc()
	var ev *event
	if n := len(e.pool); n > 0 {
		ev = e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
	} else {
		ev = &event{}
		mPoolAlloc.Inc()
	}
	ev.at, ev.seq, ev.fn, ev.canceled = t, e.seq, fn, false
	e.seq++
	e.push(ev)
	return Event{ev: ev, gen: ev.gen, at: t}
}

// After schedules fn to run d nanoseconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("des: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// RunCtx executes events in timestamp order until none remain or ctx is
// cancelled, whichever comes first, and returns the final virtual time.
//
// Internally events are drained in runs of equal timestamps (popRun) and
// fired in seq order, which is bit-identical to popping them one at a time:
// (at, seq) is a total order, and callbacks scheduled mid-run receive higher
// seq values, so they land in a later batch of the same timestamp.
//
// The context is checked before every event — including the events inside a
// drained batch — so a cancelled run stops without firing another callback
// and returns a *CanceledError recording the virtual time reached. Events
// still pending at cancellation stay in the heap (a mid-batch abort pushes
// the unfired remainder back), so a later RunCtx drains them and cancelled
// engines stay safe to recycle.
//
// The checkpoint is a non-blocking channel receive — no allocation, no
// syscall — and a context that can never be cancelled (Done() == nil, e.g.
// context.Background) skips it entirely, so the loop keeps the engine's
// zero-alloc steady state either way (pinned in alloc_test.go).
func (e *Engine) RunCtx(ctx context.Context) (Time, error) {
	done := ctx.Done()
	for len(e.events) > 0 {
		e.popRun()
		if err := e.fireBatch(ctx, done); err != nil {
			return e.now, err
		}
	}
	return e.now, nil
}

// step pops and executes a single event. It is the per-event reference
// implementation the batched drain is property-tested against
// (TestBatchedDrainMatchesSerial); production runs go through
// popRun/fireBatch instead.
func (e *Engine) step() {
	ev := e.pop()
	if ev.canceled {
		mEventsCancelled.Inc()
		e.recycle(ev)
		return
	}
	if ev.at < e.now {
		panic("des: event heap time went backwards")
	}
	e.now = ev.at
	e.fired++
	mEventsFired.Inc()
	fn := ev.fn
	e.recycle(ev)
	fn()
}

// recycle returns an event record to the pool, invalidating outstanding
// handles via the generation bump and dropping the callback reference so the
// pool does not retain closures.
func (e *Engine) recycle(ev *event) {
	mPoolRecycled.Inc()
	e.recycleQuiet(ev)
}

// recycleQuiet is recycle without the per-event metric update; fireBatch
// recycles a whole run and publishes one batched counter add instead.
func (e *Engine) recycleQuiet(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.canceled = false
	e.pool = append(e.pool, ev) // amortized: pool capacity is reused across steps
}

// less orders events by (time, schedule sequence); the sequence tie-break
// keeps equal-time events in submission order, the determinism contract.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts ev into the heap (sift-up). Hand-rolled instead of
// container/heap so the hot path stays monomorphic and interface-free.
func (e *Engine) push(ev *event) {
	e.events = append(e.events, ev) // amortized: heap capacity is reused across runs
	i := len(e.events) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(e.events[i], e.events[parent]) {
			break
		}
		e.events[i], e.events[parent] = e.events[parent], e.events[i]
		i = parent
	}
}

// pop removes and returns the earliest event (sift-down).
func (e *Engine) pop() *event {
	h := e.events
	root := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	e.events = h[:n]
	e.siftDown(0)
	return root
}

// siftDown restores the heap property in the subtree rooted at slot i.
func (e *Engine) siftDown(i int) {
	h := e.events
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && eventLess(h[l], h[min]) {
			min = l
		}
		if r < n && eventLess(h[r], h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// popRun drains every event sharing the earliest timestamp into e.batch, in
// seq order, using one round of sift-downs for the whole run.
//
// Correctness: t = h[0].at is the heap minimum, so any node with at == t has
// a parent with at == t — the equal-time events form a connected subtree
// containing the root. The BFS below walks exactly that subtree; because a
// heap level occupies a contiguous, strictly increasing index range and the
// queue appends children of ascending parents in ascending order, the visit
// order — and therefore e.holes, the slots the run vacates — is ascending by
// construction, no sort needed. The drained events are sorted by seq on a
// contiguous (seq, ev) scratch array and fired in that order, the same total
// order (at, seq) the serial engine pops in. The holes are then refilled
// from the heap tail, deepest hole first: processing hole indices in
// descending order keeps every fill source at or beyond the shrinking tail
// boundary (a hole index can never exceed the current tail, and equal means
// the hole is the tail itself). Non-hole positions still satisfy the heap
// property among themselves, so sifting the filled slots down in descending
// index order — children before parents, Floyd's bottom-up heapify argument
// — restores a valid heap while touching only the affected paths.
func (e *Engine) popRun() {
	h := e.events
	n := len(h)
	t := h[0].at
	e.batch = e.batch[:0]
	// Single-event fast path: neither child of the root shares its
	// timestamp, so the run is just the root and the drain degenerates to
	// the classic pop.
	if (n < 2 || h[1].at != t) && (n < 3 || h[2].at != t) {
		ev := e.pop()
		e.batch = append(e.batch, seqEntry{ev.seq, ev}) // amortized: batch capacity is reused across runs
		return
	}
	holes := append(e.holes[:0], 0) // amortized: hole-list capacity is reused across runs
	for qi := 0; qi < len(holes); qi++ {
		i := int(holes[qi])
		ev := h[i]
		e.batch = append(e.batch, seqEntry{ev.seq, ev}) // amortized: batch capacity is reused across runs
		if l := 2*i + 1; l < n && h[l].at == t {
			holes = append(holes, int32(l)) // amortized: hole-list capacity is reused across runs
		}
		if r := 2*i + 2; r < n && h[r].at == t {
			holes = append(holes, int32(r)) // amortized: hole-list capacity is reused across runs
		}
	}
	e.holes = holes
	// Refill the vacated slots from the heap tail and restore the heap with
	// one bottom-up round of sift-downs.
	for j := len(holes) - 1; j >= 0; j-- {
		i := int(holes[j])
		n--
		if i != n {
			h[i] = h[n]
		}
		h[n] = nil
	}
	e.events = h[:n]
	for j := len(holes) - 1; j >= 0; j-- {
		if i := int(holes[j]); i < n {
			e.siftDown(i)
		}
	}
	sortBySeq(e.batch)
}

// sortBySeq orders one drained run ascending by seq: an already-sorted scan
// first (bulk-synchronous schedules enqueue same-time events in seq order,
// and the BFS drain largely preserves it), insertion sort for short runs,
// in-place heapsort above that — O(k log k) worst case with no allocation
// and no indirect comparison calls.
func sortBySeq(a []seqEntry) {
	n := len(a)
	sorted := true
	for i := 1; i < n; i++ {
		if a[i-1].seq > a[i].seq {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	if n < 16 {
		for i := 1; i < n; i++ {
			x := a[i]
			j := i - 1
			for j >= 0 && a[j].seq > x.seq {
				a[j+1] = a[j]
				j--
			}
			a[j+1] = x
		}
		return
	}
	for i := n/2 - 1; i >= 0; i-- {
		siftEntryDown(a, i, n)
	}
	for end := n - 1; end > 0; end-- {
		a[0], a[end] = a[end], a[0]
		siftEntryDown(a, 0, end)
	}
}

// siftEntryDown restores the max-heap-by-seq property at slot i of a[:n].
func siftEntryDown(a []seqEntry, i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		max := l
		if r := l + 1; r < n && a[r].seq > a[l].seq {
			max = r
		}
		if a[max].seq <= a[i].seq {
			return
		}
		a[i], a[max] = a[max], a[i]
		i = max
	}
}

// fireBatch executes the drained run in seq order. Cancelled events are
// dropped at fire position — exactly where the serial pop would have dropped
// them, so a callback cancelling a later event in the same batch still
// suppresses it. When done is non-nil the context is checked before every
// event (fired or dropped), a per-event checkpoint; on cancellation the
// unfired remainder is pushed back into the heap so the engine stays
// reusable and Remaining counts every still-pending event.
// Metrics are published as one batched add per counter; the totals match the
// serial engine's per-event increments.
func (e *Engine) fireBatch(ctx context.Context, done <-chan struct{}) error {
	fired, cancelled := 0, 0
	for i, ent := range e.batch {
		ev := ent.ev
		if done != nil {
			select {
			case <-done:
				for _, rest := range e.batch[i:] {
					e.push(rest.ev)
				}
				e.batch = e.batch[:0]
				e.flushBatchMetrics(fired, cancelled)
				return &CanceledError{
					At:        e.now,
					Executed:  e.fired,
					Remaining: len(e.events),
					Cause:     context.Cause(ctx),
				}
			default:
			}
		}
		if ev.canceled {
			cancelled++
			e.recycleQuiet(ev)
			continue
		}
		if ev.at < e.now {
			panic("des: event heap time went backwards")
		}
		e.now = ev.at
		e.fired++
		fired++
		fn := ev.fn
		e.recycleQuiet(ev)
		fn()
	}
	e.batch = e.batch[:0]
	e.flushBatchMetrics(fired, cancelled)
	return nil
}

// flushBatchMetrics publishes one batch's counter deltas.
func (e *Engine) flushBatchMetrics(fired, cancelled int) {
	if fired > 0 {
		mEventsFired.Add(int64(fired))
	}
	if cancelled > 0 {
		mEventsCancelled.Add(int64(cancelled))
	}
	if fired+cancelled > 0 {
		mPoolRecycled.Add(int64(fired + cancelled))
	}
}
