package main

import (
	"os"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// phase re-executes itself to run the machine-speed probe.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "probe" {
		os.Exit(probeMain())
	}
	os.Exit(m.Run())
}
