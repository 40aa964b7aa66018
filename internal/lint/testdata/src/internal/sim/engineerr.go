// Package sim is a lint fixture for the repo-wide typed rules:
// goroutine-leak, lock-pairing, metrics-cardinality, and
// unchecked-engine-err.
package sim

import "errors"

var errBad = errors.New("schedule does not verify")

// Validate checks one schedule; its error is the verification outcome.
func Validate(ok bool) error {
	if !ok {
		return errBad
	}
	return nil
}

// Check drops the verification outcome on the floor.
func Check() {
	Validate(true) // want "unchecked-engine-err"
}

// CheckBlank discards it through the blank identifier.
func CheckBlank() {
	_ = Validate(true) // want "unchecked-engine-err"
}

// CheckRight routes the error to its caller.
func CheckRight() error {
	return Validate(true)
}

// CheckQuiet is the suppressed twin.
func CheckQuiet() {
	Validate(true) //lint:ignore unchecked-engine-err fixture: suppressed dropped verification
}
