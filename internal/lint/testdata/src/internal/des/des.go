// Package des is a lint fixture modeling the DES engine's rule surface:
// hot-path allocation discipline (des-hot-alloc) and the wall-clock ban
// (no-sleep, virtual-time).
package des

import (
	"context"
	"time"
)

// Engine is a miniature stand-in for the real event engine.
type Engine struct {
	buf []int
	now int64
}

// RunCtx drains the engine under a cancellation context: the run loop is
// hot, so this undocumented growth is flagged.
func (e *Engine) RunCtx(ctx context.Context) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	e.now++
	e.buf = append(e.buf, int(e.now)) // want "des-hot-alloc"
	return len(e.buf), nil
}

// push is on the per-event hot path; this growth is undocumented.
func (e *Engine) push(v int) {
	e.buf = append(e.buf, v) // want "des-hot-alloc"
}

// pop is hot too; its growth is documented, so it passes.
func (e *Engine) pop() int {
	if len(e.buf) == 0 {
		e.buf = append(e.buf, 0) // amortized: grow-once backfill
	}
	v := e.buf[len(e.buf)-1]
	e.buf = e.buf[:len(e.buf)-1]
	return v
}

// recycle is hot; its growth is waved through to exercise suppression.
func (e *Engine) recycle() {
	e.buf = append(e.buf, 0) //lint:ignore des-hot-alloc fixture: suppressed hot-path growth
}

// popRun models the batched drain: documented scratch reuse passes.
func (e *Engine) popRun(n int) {
	e.buf = e.buf[:0]
	for i := 0; i < n; i++ {
		e.buf = append(e.buf, i) // amortized: batch scratch reused across runs
	}
}

// fireBatch is on the batched hot path; this growth is undocumented.
func (e *Engine) fireBatch() {
	e.buf = append(e.buf, 0) // want "des-hot-alloc"
}

// Drain exists so the unexported hot-path helpers above are referenced.
func (e *Engine) Drain(v int) int {
	e.push(v)
	e.recycle()
	e.popRun(2)
	e.fireBatch()
	return e.pop()
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
