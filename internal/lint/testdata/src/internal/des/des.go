// Package des is a lint fixture modeling the DES engine's rule surface:
// hot-path allocation discipline (des-hot-alloc) and the wall-clock ban
// (no-sleep, virtual-time).
package des

import (
	"context"
	"time"
)

// Flat is a miniature stand-in for the real run loop's task columns.
type Flat struct {
	Dur  []int64
	Succ []int32
	q    radixQueue
}

// radixQueue is a miniature stand-in for the run loop's ready queue.
type radixQueue struct {
	now  []int32
	next []int32
}

// RunCtx drains the run loop under a cancellation context: the loop is
// hot, so this undocumented growth is flagged.
func (f *Flat) RunCtx(ctx context.Context) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	f.Dur = append(f.Dur, int64(len(f.Dur))) // want "des-hot-alloc"
	return len(f.Dur), nil
}

// Link sizes the successor CSR; its growth is documented, so it passes.
func (f *Flat) Link(edges int) {
	if cap(f.Succ) < edges {
		f.Succ = make([]int32, edges) // prealloc: grown once, kept across runs
	}
	f.Succ = f.Succ[:edges]
}

// push is on the per-task hot path; this growth is undocumented.
func (q *radixQueue) push(id int32) {
	q.now = append(q.now, id) // want "des-hot-alloc"
}

// nowPush is hot too; its scratch reuse is documented, so it passes.
func (q *radixQueue) nowPush(id int32) {
	q.now = append(q.now, id) // amortized: heap capacity is reused across runs
}

// reset is hot; its growth is waved through to exercise suppression.
func (q *radixQueue) reset(tasks int) {
	q.next = make([]int32, tasks) //lint:ignore des-hot-alloc fixture: suppressed hot-path growth
}

// AddBlock appends a block of task rows; hot, and this growth is
// undocumented.
func (f *Flat) AddBlock(n int) int {
	base := len(f.Dur)
	f.Dur = append(f.Dur, make([]int64, n)...) // want "des-hot-alloc" "des-hot-alloc"
	return base
}

// Run exists so the unexported hot-path helpers above are referenced.
func (f *Flat) Run(id int32) int {
	f.q.reset(int(id) + 1)
	f.q.push(id)
	f.q.nowPush(id)
	f.Link(1)
	f.AddBlock(1)
	return len(f.q.now)
}

// Wait blocks on the host clock: forbidden in a simulator package.
func Wait() {
	time.Sleep(time.Millisecond) // want "no-sleep"
}

// WaitQuiet is the suppressed twin.
func WaitQuiet() {
	time.Sleep(time.Millisecond) //lint:ignore no-sleep fixture: suppressed sleep
}

// Stamp reads the wall clock: forbidden in a simulator package.
func Stamp() int64 {
	return time.Now().UnixNano() // want "virtual-time"
}

// StampQuiet is the suppressed twin.
func StampQuiet() int64 {
	//lint:ignore virtual-time fixture: suppressed wall-clock read
	return time.Now().UnixNano()
}
