//go:build race

package main

// raceEnabled: the race detector's own allocations and slowdown leave a toy
// window too few ops for the allocation comparison.
const raceEnabled = true
