package memctrl_test

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"reaper/internal/core"
	"reaper/internal/dram"
	"reaper/internal/memctrl"
	"reaper/internal/parallel"
	"reaper/internal/patterns"
	"reaper/internal/thermal"
)

// devices builds n identically shaped, independently seeded chips.
func devices(t testing.TB, n int, baseSeed uint64) []*dram.Device {
	t.Helper()
	out := make([]*dram.Device, n)
	for i := range out {
		d, err := dram.NewDevice(dram.Config{
			Geometry:  dram.Geometry{Banks: 8, RowsPerBank: 32, WordsPerRow: 256},
			Vendor:    dram.VendorB(),
			Seed:      baseSeed + uint64(i),
			WeakScale: 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = d
	}
	return out
}

// testModule builds a chamberless station over n chips and returns the
// chips with it.
func testModule(t testing.TB, chips int, seed uint64) (*memctrl.Station, []*dram.Device) {
	t.Helper()
	devs := devices(t, chips, seed)
	m, err := memctrl.NewStation(nil, devs...)
	if err != nil {
		t.Fatal(err)
	}
	return m, devs
}

// splitBit decomposes a station-wide cell address.
func splitBit(global uint64) (chip int, bit uint64) {
	return int(global >> 48), global & (1<<48 - 1)
}

func TestGlobalBitRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		chip int
		bit  uint64
	}{{0, 0}, {3, 12345}, {31, 1<<48 - 1}} {
		g := memctrl.GlobalBit(tc.chip, tc.bit)
		chip, bit := splitBit(g)
		if chip != tc.chip || bit != tc.bit {
			t.Errorf("round trip (%d,%d) -> (%d,%d)", tc.chip, tc.bit, chip, bit)
		}
	}
	if memctrl.GlobalBit(0, 777) != 777 {
		t.Error("chip 0's addresses must be its device's")
	}
}

func TestNewStationValidation(t *testing.T) {
	if _, err := memctrl.NewStation(nil, nil); err == nil {
		t.Error("nil device not rejected")
	}
	// One row of 2^42 words holds 2^48 bits, leaving no room for a chip
	// index; the weak scale keeps its population (and memory) empty.
	huge, err := dram.NewDevice(dram.Config{
		Geometry:  dram.Geometry{Banks: 1, RowsPerBank: 1, WordsPerRow: 1 << 42},
		Vendor:    dram.VendorB(),
		WeakScale: 1e-30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := memctrl.NewStation(nil, huge); err == nil {
		t.Error("device beyond the station-wide address space not rejected")
	}
}

func TestNewModuleValidation(t *testing.T) {
	if _, err := memctrl.NewStation(nil); err == nil {
		t.Error("station without a device not rejected")
	}
	devs := devices(t, 2, 1)
	if _, err := memctrl.NewStation(nil, devs[0], nil); err == nil {
		t.Error("nil second device not rejected")
	}
	other, err := dram.NewDevice(dram.Config{
		Geometry: dram.Geometry{Banks: 4, RowsPerBank: 32, WordsPerRow: 256},
		Vendor:   dram.VendorB(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := memctrl.NewStation(nil, devs[0], other); err == nil {
		t.Error("mismatched geometry not rejected")
	}
}

func TestModulePassTimeScalesWithChips(t *testing.T) {
	m1, _ := testModule(t, 1, 10)
	m4, _ := testModule(t, 4, 10)
	m1.WritePattern(patterns.Solid0())
	m4.WritePattern(patterns.Solid0())
	if r := m4.Stats().WriteSeconds / m1.Stats().WriteSeconds; math.Abs(r-4) > 1e-9 {
		t.Errorf("pass time scaling = %v, want 4 (Eq 9's capacity scaling)", r)
	}
	if m4.Stats().BytesWritten != 4*m1.Stats().BytesWritten {
		t.Error("capacity accounting wrong")
	}
	if m4.Chips() != 4 {
		t.Error("chip count wrong")
	}
}

func TestModuleProfilingFindsPerChipFailures(t *testing.T) {
	m, devs := testModule(t, 4, 20)
	res, err := core.BruteForce(m, 2.048, core.Options{
		Iterations: 4, FreshRandomPerIteration: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures.Len() == 0 {
		t.Fatal("no failures on the module")
	}
	// Failures must come from several chips.
	chipsSeen := map[int]bool{}
	for _, g := range res.Failures.Sorted() {
		chip, bit := splitBit(g)
		if chip < 0 || chip >= m.Chips() {
			t.Fatalf("failure at invalid chip %d", chip)
		}
		if bit >= uint64(devs[chip].Geometry().TotalBits()) {
			t.Fatalf("failure at invalid bit %d", bit)
		}
		chipsSeen[chip] = true
	}
	if len(chipsSeen) < 3 {
		t.Errorf("failures from only %d chips, want spread across the module", len(chipsSeen))
	}
}

func TestModuleReachProfilingAndTruth(t *testing.T) {
	m, _ := testModule(t, 2, 30)
	truth := core.Truth(m, 1.024, 45)
	if truth.Len() == 0 {
		t.Fatal("empty module truth")
	}
	res, err := core.Reach(m, 1.024, core.ReachConditions{DeltaInterval: 0.25},
		core.Options{Iterations: 12, FreshRandomPerIteration: true})
	if err != nil {
		t.Fatal(err)
	}
	cov := core.Coverage(res.Failures, truth)
	if cov < 0.9 {
		t.Errorf("module reach coverage = %v, want >= 0.9", cov)
	}
	if fpr := core.FalsePositiveRate(res.Failures, truth); fpr <= 0 {
		t.Error("module reach produced no false positives")
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestModuleRefreshControl(t *testing.T) {
	m, devs := testModule(t, 2, 40)
	m.WritePattern(patterns.Solid0())
	m.Wait(2.048) // refresh on: no loss
	if fails := m.ReadCompare(); len(fails) != 0 {
		t.Errorf("%d failures with refresh enabled", len(fails))
	}
	check := func(step string, want float64) {
		t.Helper()
		for i, d := range devs {
			if d.AutoRefresh() != want {
				t.Errorf("%s: chip %d refresh interval = %v, want %v", step, i, d.AutoRefresh(), want)
			}
		}
	}
	m.SetRefreshInterval(0.512)
	check("SetRefreshInterval(0.512)", 0.512)
	m.SetRefreshInterval(0)
	check("SetRefreshInterval(0)", 0)
	m.EnableRefresh()
	check("EnableRefresh", memctrl.DefaultTREFI)
	m.DisableRefresh()
	check("DisableRefresh", 0)
}

func TestModuleTemperature(t *testing.T) {
	m, devs := testModule(t, 2, 50)
	if got := m.SetAmbient(55); got != 55 {
		t.Errorf("SetAmbient = %v", got)
	}
	for i, d := range devs {
		if d.Temperature() != 55 {
			t.Errorf("chip %d at %v°C: temperature did not reach every chip", i, d.Temperature())
		}
	}
	if m.Ambient() != 55 {
		t.Error("Ambient readback wrong")
	}
}

func TestModuleWithChamber(t *testing.T) {
	ch := thermal.NewChamber(1)
	ch.SettleTo(45, 0.25, 3600)
	devs := devices(t, 2, 60)
	m, err := memctrl.NewStation(ch, devs...)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Clock()
	m.SetAmbient(50)
	if m.Clock() == before {
		t.Error("chambered module settle consumed no time")
	}
	if a := m.Ambient(); math.Abs(a-50) > 0.6 {
		t.Errorf("ambient after settle = %v", a)
	}
	// One chamber reading per sync: every chip sees the same sensor draw.
	if devs[0].Temperature() != devs[1].Temperature() {
		t.Errorf("chips at %v and %v°C under one chamber", devs[0].Temperature(), devs[1].Temperature())
	}
	if m.Stats().IdleSeconds <= 0 {
		t.Error("settle time not charged as idle")
	}
}

// TestModuleParallelDeterministic runs identical profiling passes on two
// identically seeded modules — one with a single worker, one with eight —
// and requires identical failure lists and truth sets. Each chip owns its
// own device and RNG, so the chip pool must not change any result.
func TestModuleParallelDeterministic(t *testing.T) {
	run := func(workers int) ([][]uint64, []uint64) {
		m, _ := testModule(t, 4, 77)
		m.SetWorkers(workers)
		var passes [][]uint64
		for _, p := range []patterns.Pattern{
			patterns.Solid1(), patterns.Checkerboard(), patterns.Random(5),
		} {
			m.WritePattern(p)
			m.DisableRefresh()
			m.Wait(2.048)
			m.EnableRefresh()
			passes = append(passes, m.ReadCompare())
		}
		truth := m.TrueFailingSet(1.024, 45)
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		return passes, truth
	}
	seqPasses, seqTruth := run(1)
	parPasses, parTruth := run(8)
	if !reflect.DeepEqual(seqPasses, parPasses) {
		t.Fatal("ReadCompare results differ between workers=1 and workers=8")
	}
	if !reflect.DeepEqual(seqTruth, parTruth) {
		t.Fatal("TrueFailingSet differs between workers=1 and workers=8")
	}
	// The concatenated station-wide failure lists must come back sorted
	// (the no-final-sort path relies on chip-major address composition).
	for _, pass := range parPasses {
		for i := 1; i < len(pass); i++ {
			if pass[i-1] > pass[i] {
				t.Fatalf("ReadCompare result not sorted at %d", i)
			}
		}
	}
}

// panicPattern is a RowData whose content lookup panics, simulating a bug
// inside a per-chip simulation running on a worker goroutine.
type panicPattern struct{}

func (panicPattern) Word(uint32, int) uint64 { panic("panicPattern: boom") }

func (panicPattern) Name() string { return "panic" }

func TestModuleLatchesWorkerPanicAsError(t *testing.T) {
	m, _ := testModule(t, 2, 9)
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
	m.WritePattern(patterns.Solid0())
	_ = m.ReadCompare()
	if m.Err() != err {
		t.Fatal("latched error did not stick")
	}
}

// TestBruteForceReturnsLatchedChipError: a profiling run over a module whose
// chip pool fails returns the latched error instead of a result scored from
// failed passes.
func TestBruteForceReturnsLatchedChipError(t *testing.T) {
	m, _ := testModule(t, 2, 9)
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

// TestOneChipStationPanicPropagates: a one-chip station calls its device
// directly, so a panic in the chip simulation is not latched but reaches
// the caller.
func TestOneChipStationPanicPropagates(t *testing.T) {
	m, _ := testModule(t, 1, 9)
	m.WritePattern(panicPattern{})
	m.DisableRefresh()
	m.Wait(8)
	defer func() {
		if recover() == nil {
			t.Error("panic in a one-chip read was swallowed")
		}
		if m.Err() != nil {
			t.Errorf("one-chip station latched %v", m.Err())
		}
	}()
	m.ReadCompare()
}
