//go:build !race

package samplewh

// raceEnabled reports whether the binary was built with -race; see
// race_on_test.go.
const raceEnabled = false
