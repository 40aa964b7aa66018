//go:build race

package train

// raceEnabled reports a -race build, whose instrumentation moves some
// values to the heap, so allocation counts differ from a normal build.
const raceEnabled = true
