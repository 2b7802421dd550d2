package experiments

import (
	"context"
	"testing"

	"reaper/internal/dram"
)

func TestAblationVRT(t *testing.T) {
	chip := ChipSpec{Bits: 16 << 20, WeakScale: 100, Vendor: dram.VendorB(), Seed: 101}
	res, err := AblationVRT(context.Background(), chip, 2.048, 50, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewCellsPerHourWithVRT <= 0 {
		t.Errorf("with VRT, accumulation rate = %v, want > 0", res.NewCellsPerHourWithVRT)
	}
	// Without VRT the base population is eventually exhausted; the
	// steady-state rate must collapse (a small residue of low-probability
	// stragglers is acceptable).
	if res.NewCellsPerHourWithoutVRT > res.NewCellsPerHourWithVRT/2 {
		t.Errorf("without VRT, rate %v not well below with-VRT rate %v",
			res.NewCellsPerHourWithoutVRT, res.NewCellsPerHourWithVRT)
	}
}

func TestAblationDPD(t *testing.T) {
	chip := ChipSpec{Bits: 16 << 20, WeakScale: 30, Vendor: dram.VendorB(), Seed: 102}
	res, err := AblationDPD(context.Background(), chip, 1.024, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Without DPD a single pattern pair finds essentially everything.
	if res.SinglePatternCoverageWithoutDPD < 0.95 {
		t.Errorf("no-DPD single-pattern coverage = %v, want >= 0.95",
			res.SinglePatternCoverageWithoutDPD)
	}
	// With DPD it cannot: the worst-case contexts of many cells are never
	// exercised by solid data.
	if res.SinglePatternCoverageWithDPD >= res.SinglePatternCoverageWithoutDPD {
		t.Errorf("DPD did not reduce single-pattern coverage: %v vs %v",
			res.SinglePatternCoverageWithDPD, res.SinglePatternCoverageWithoutDPD)
	}
}

func TestAblationReachKnobs(t *testing.T) {
	chip := ChipSpec{Bits: 16 << 20, WeakScale: 30, Vendor: dram.VendorB(), Seed: 103}
	// ~1s per 10°C at these conditions: +0.5s should roughly match +5°C.
	res, err := AblationReachKnobs(context.Background(), chip, 1.024, 0.5, 5, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]KnobPoint{
		"interval": res.IntervalOnly, "temp": res.TempOnly, "combined": res.Combined,
	} {
		if p.Coverage < 0.95 {
			t.Errorf("%s reach coverage = %v, want >= 0.95", name, p.Coverage)
		}
		if p.FPR <= 0 || p.FPR >= 1 {
			t.Errorf("%s reach FPR = %v out of (0,1)", name, p.FPR)
		}
	}
	// Interchangeability: the knobs land within a band of each other.
	if d := res.IntervalOnly.Coverage - res.TempOnly.Coverage; d > 0.05 || d < -0.05 {
		t.Errorf("knob coverages diverge: interval %v vs temp %v",
			res.IntervalOnly.Coverage, res.TempOnly.Coverage)
	}
}
