// Package sim is a lint fixture for the repo-wide typed rules:
// goroutine-leak, lock-pairing, metrics-cardinality, and
// unchecked-engine-err.
package sim

import "errors"

var errBad = errors.New("schedule does not verify")

// Verify checks one schedule; its error is the verification outcome.
func Verify(ok bool) error {
	if !ok {
		return errBad
	}
	return nil
}

// Check drops the verification outcome on the floor.
func Check() {
	Verify(true) // want "unchecked-engine-err"
}

// CheckBlank discards it through the blank identifier.
func CheckBlank() {
	_ = Verify(true) // want "unchecked-engine-err"
}

// CheckRight routes the error to its caller.
func CheckRight() error {
	return Verify(true)
}

// CheckQuiet is the suppressed twin.
func CheckQuiet() {
	Verify(true) //lint:ignore unchecked-engine-err fixture: suppressed dropped verification
}
