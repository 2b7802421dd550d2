package module

import (
	"math"
	"testing"

	"reaper/internal/core"
	"reaper/internal/dram"
	"reaper/internal/memctrl"
	"reaper/internal/thermal"
)

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

func testModule(t testing.TB, chips int, seed uint64) *Module {
	t.Helper()
	m, err := New(devices(t, chips, seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// SplitBit decomposes a module-global cell address.
func SplitBit(global uint64) (chip int, bit uint64) {
	return int(global >> chipShift), global & (1<<chipShift - 1)
}

func TestGlobalBitRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		chip int
		bit  uint64
	}{{0, 0}, {3, 12345}, {31, 1<<48 - 1}} {
		g := GlobalBit(tc.chip, tc.bit)
		chip, bit := SplitBit(g)
		if chip != tc.chip || bit != tc.bit {
			t.Errorf("round trip (%d,%d) -> (%d,%d)", tc.chip, tc.bit, chip, bit)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("empty module not rejected")
	}
	devs := devices(t, 2, 1)
	if _, err := New([]*dram.Device{devs[0], nil}, nil); err == nil {
		t.Error("nil device not rejected")
	}
	other, err := dram.NewDevice(dram.Config{
		Geometry: dram.Geometry{Banks: 4, RowsPerBank: 32, WordsPerRow: 256},
		Vendor:   dram.VendorB(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New([]*dram.Device{devs[0], other}, nil); err == nil {
		t.Error("mismatched geometry not rejected")
	}
}

func TestModulePassTimeScalesWithChips(t *testing.T) {
	m1 := testModule(t, 1, 10)
	m4 := testModule(t, 4, 10)
	m1.WritePattern(zeroPattern{})
	m4.WritePattern(zeroPattern{})
	if r := m4.Stats().WriteSeconds / m1.Stats().WriteSeconds; math.Abs(r-4) > 1e-9 {
		t.Errorf("pass time scaling = %v, want 4 (Eq 9's capacity scaling)", r)
	}
	if m4.TotalBytes() != 4*m1.TotalBytes() {
		t.Error("capacity accounting wrong")
	}
	if m4.Chips() != 4 {
		t.Error("chip count wrong")
	}
}

type zeroPattern struct{}

func (zeroPattern) Word(uint32, int) uint64 { return 0 }
func (zeroPattern) Name() string            { return "zero" }

func TestModuleProfilingFindsPerChipFailures(t *testing.T) {
	m := testModule(t, 4, 20)
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
		chip, bit := SplitBit(g)
		if chip < 0 || chip >= m.Chips() {
			t.Fatalf("failure at invalid chip %d", chip)
		}
		if bit >= uint64(m.Device(chip).Geometry().TotalBits()) {
			t.Fatalf("failure at invalid bit %d", bit)
		}
		chipsSeen[chip] = true
	}
	if len(chipsSeen) < 3 {
		t.Errorf("failures from only %d chips, want spread across the module", len(chipsSeen))
	}
}

func TestModuleReachProfilingAndTruth(t *testing.T) {
	m := testModule(t, 2, 30)
	truth, err := m.Truth(1.024, 45)
	if err != nil {
		t.Fatal(err)
	}
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
}

func TestModuleRefreshControl(t *testing.T) {
	m := testModule(t, 2, 40)
	m.WritePattern(zeroPattern{})
	m.Wait(2.048) // refresh on: no loss
	if fails := m.ReadCompare(); len(fails) != 0 {
		t.Errorf("%d failures with refresh enabled", len(fails))
	}
	m.SetRefreshInterval(0.512)
	for _, want := range []float64{0.512, 0.512} {
		if m.Device(0).AutoRefresh() != want {
			t.Errorf("chip refresh interval = %v, want %v", m.Device(0).AutoRefresh(), want)
		}
	}
	m.SetRefreshInterval(0)
	if m.Device(1).AutoRefresh() != 0 {
		t.Error("disable via SetRefreshInterval(0) did not take")
	}
	m.EnableRefresh()
	if m.Device(0).AutoRefresh() != memctrl.DefaultTREFI {
		t.Error("EnableRefresh did not restore the default interval")
	}
}

func TestModuleTemperature(t *testing.T) {
	m := testModule(t, 2, 50)
	if got := m.SetAmbient(55); got != 55 {
		t.Errorf("SetAmbient = %v", got)
	}
	if m.Device(0).Temperature() != 55 || m.Device(1).Temperature() != 55 {
		t.Error("temperature did not propagate to all chips")
	}
	if m.Ambient() != 55 {
		t.Error("Ambient readback wrong")
	}
}

func TestModuleWithChamber(t *testing.T) {
	ch := thermal.NewChamber(1)
	ch.SettleTo(45, 0.25, 3600)
	m, err := New(devices(t, 2, 60), ch)
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
}
