//go:build !race

package core

// raceEnabled reports whether this test binary was built with -race.
const raceEnabled = false
