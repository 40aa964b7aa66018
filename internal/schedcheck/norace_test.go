//go:build !race

package schedcheck_test

const raceEnabled = false
