package module

import (
	"errors"
	"testing"

	"reaper/internal/core"
	"reaper/internal/parallel"
	"reaper/internal/patterns"
)

// panicPattern is a RowData whose content lookup panics, simulating a bug
// inside a per-chip simulation running on a worker goroutine.
type panicPattern struct{}

func (panicPattern) Word(uint32, int) uint64 { panic("panicPattern: boom") }

func (panicPattern) Name() string { return "panic" }

func TestModuleLatchesWorkerPanicAsError(t *testing.T) {
	m := testModule(t, 2, 9)
	if m.Err() != nil {
		t.Fatalf("fresh module has latched error %v", m.Err())
	}
	m.WritePattern(panicPattern{})
	// Let enough simulated time pass that the read's active band is
	// non-empty (the sparse read path only evaluates row content for cells
	// whose failure probability can be nonzero). ReadCompare then evaluates
	// the pattern on worker goroutines; the panic must come back as a
	// latched error, not a process crash.
	m.DisableRefresh()
	m.Wait(8)
	_ = m.ReadCompare()
	err := m.Err()
	if err == nil {
		t.Fatal("worker panic was not latched on Err")
	}
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("latched error %T is not a *parallel.PanicError", err)
	}
	// The latch is sticky: the first error survives later clean passes.
	if m.Err() != err {
		t.Fatal("latched error did not stick")
	}
}

// TestBruteForceReturnsLatchedChipError: a profiling run over a module whose
// chip pool fails returns the latched error instead of a result scored from
// failed passes.
func TestBruteForceReturnsLatchedChipError(t *testing.T) {
	m := testModule(t, 2, 9)
	// An 8 s retention window puts cells in the read's active band, so the
	// read evaluates the pattern on the chip pool.
	res, err := core.BruteForce(m, 8, core.Options{Iterations: 1, Patterns: []patterns.Pattern{panicPattern{}}})
	if err == nil {
		t.Fatalf("BruteForce over a failed chip pool returned %d failures and no error", res.Failures.Len())
	}
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("BruteForce error %T (%v) is not a *parallel.PanicError", err, err)
	}
}
