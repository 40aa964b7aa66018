//go:build !race

package train

const raceEnabled = false
