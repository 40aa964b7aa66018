// Package des is the deterministic discrete-event simulator every timed
// experiment in this repository runs on: collective-communication
// schedules, training-iteration pipelines and scale-out studies all reduce
// to a dependency graph of tasks executed on serialized Resources (links,
// GPU compute streams).
//
// There is one run loop, Flat.RunCtx (flat.go): tasks and resources kept in
// columns, a successor CSR linked from a predecessor CSR, and a monotone
// radix heap as the ready queue (radix.go). A collective schedule fills a
// Flat straight from its ops; a Graph keeps its tasks in a Flat's columns
// (graph.go), and a schedule joins one as a block of rows.
//
// Time is virtual and measured in integer nanoseconds, so runs are exactly
// reproducible: two executions of the same graph yield bit-identical
// timelines regardless of host load.
//
// A warm run is allocation-free: a Flat keeps its columns and queue across
// Reset, and Resources keep their interval logs. Regression tests assert
// this with testing.AllocsPerRun (alloc_test.go), and the exact allocs/op
// budgets of internal/bench gate the same paths end to end.
package des

import "fmt"

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
