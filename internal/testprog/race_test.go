//go:build race

package testprog

// raceEnabled reports whether the race detector instruments this test
// binary; timed tests widen their budgets under it.
const raceEnabled = true
