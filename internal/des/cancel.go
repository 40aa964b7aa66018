package des

import "fmt"

// CanceledError reports that a run stopped at a cancellation checkpoint
// before draining its work: the caller's context was cancelled (or its
// deadline expired) mid-simulation. The run loop checks the context at
// task-pop granularity, so the abort is prompt — at most the task already
// granted completes after cancellation — and deterministic with respect to
// virtual time: At records how far the simulated clock got.
//
// CanceledError unwraps to the context error, so callers can test
// errors.Is(err, context.DeadlineExceeded) as well as errors.As into the
// typed form.
type CanceledError struct {
	At        Time  // virtual time reached when cancellation was observed
	Executed  int   // tasks completed before the stop
	Remaining int   // tasks left unexecuted
	Cause     error // context.Canceled or context.DeadlineExceeded
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("des: run canceled at %v (%d executed, %d remaining): %v",
		e.At, e.Executed, e.Remaining, e.Cause)
}

// Unwrap exposes the context error for errors.Is chains.
func (e *CanceledError) Unwrap() error { return e.Cause }
