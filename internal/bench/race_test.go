//go:build race

package bench

// raceEnabled reports a -race build, whose sync.Pool drops a random share
// of what is put back, so allocation counts differ from run to run.
const raceEnabled = true
