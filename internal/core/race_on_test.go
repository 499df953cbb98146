//go:build race

package core

// raceEnabled reports that this test binary was built with -race, whose
// instrumentation inflates heap accounting and invalidates allocation
// thresholds.
const raceEnabled = true
