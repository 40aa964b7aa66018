// Package des is a lint fixture modeling the DES engine's wall-clock ban
// (no-sleep, virtual-time).
package des

import "time"

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
