//go:build race

package samplewh

// raceEnabled reports whether the binary was built with -race. The race
// detector multiplies the cost of every mutex and atomic operation, so a
// performance guard that compares instrumented against uninstrumented code
// measures the detector, not the code, and skips under it.
const raceEnabled = true
