package reaper

import (
	"context"
	"testing"
)

func TestNewStationDefaults(t *testing.T) {
	st, err := NewStation(ChipConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Device().Geometry().TotalBits() < 64<<20 {
		t.Errorf("default chip too small: %v bits", st.Device().Geometry().TotalBits())
	}
	if st.Device().Vendor().Name != "B" {
		t.Errorf("default vendor = %s, want B", st.Device().Vendor().Name)
	}
	if st.Device().WeakCellCount() == 0 {
		t.Error("no weak cells on default chip")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	st, err := NewStation(ChipConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const target = 1.024
	res, err := Profile(st, target, ReachConditions{DeltaInterval: 0.25},
		Options{Iterations: 8, FreshRandomPerIteration: true})
	if err != nil {
		t.Fatal(err)
	}
	truth := Truth(st, target, RefTempC)
	cov := Coverage(res.Failures, truth)
	fpr := FalsePositiveRate(res.Failures, truth)
	if cov < 0.9 {
		t.Errorf("facade reach coverage = %v, want >= 0.9", cov)
	}
	if fpr <= 0 || fpr >= 1 {
		t.Errorf("facade FPR = %v, want in (0,1)", fpr)
	}
	brute, err := BruteForce(NewStationOrDie(t, 7), target, Options{Iterations: 8, FreshRandomPerIteration: true})
	if err != nil {
		t.Fatal(err)
	}
	if Coverage(brute.Failures, truth) >= cov {
		t.Error("brute force should not beat reach coverage")
	}
}

// NewStationOrDie is a test helper mirroring NewStation.
func NewStationOrDie(t *testing.T, seed uint64) *Station {
	t.Helper()
	st, err := NewStation(ChipConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestNewStationWithChamber(t *testing.T) {
	st, err := NewStation(ChipConfig{Seed: 2, WithThermalChamber: true})
	if err != nil {
		t.Fatal(err)
	}
	amb := st.Ambient()
	if amb < 44 || amb > 46 {
		t.Errorf("chambered station ambient = %v, want ~45", amb)
	}
}

func TestNewStationAblations(t *testing.T) {
	st, err := NewStation(ChipConfig{Seed: 3, DisableVRT: true, DisableDPD: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range st.Device().Cells(0) {
		if c.VRT || c.DPDSens != 0 {
			t.Fatal("ablation flags not honoured")
		}
	}
}

func TestVendorAccessors(t *testing.T) {
	if VendorA().Name != "A" || VendorB().Name != "B" || VendorC().Name != "C" {
		t.Error("vendor accessors wrong")
	}
	if NoECC().K != 0 || SECDED().K != 1 || ECC2().K != 2 {
		t.Error("ECC accessors wrong")
	}
	if len(StandardPatterns(1)) != 12 {
		t.Error("StandardPatterns should return 12 patterns")
	}
}

func TestNewModuleViaFacade(t *testing.T) {
	if _, err := NewModule(0, ChipConfig{}); err == nil {
		t.Error("zero-chip module not rejected")
	}
	m, err := NewModule(3, ChipConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Chips() != 3 {
		t.Fatalf("chips = %d", m.Chips())
	}
	res, err := Profile(m, 1.024, ReachConditions{DeltaInterval: 0.25},
		Options{Iterations: 4, FreshRandomPerIteration: true})
	if err != nil {
		t.Fatal(err)
	}
	truth := Truth(m, 1.024, RefTempC)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if cov := Coverage(res.Failures, truth); cov < 0.8 {
		t.Errorf("module coverage via facade = %v", cov)
	}
}

func TestExploreTradeoffsViaFacade(t *testing.T) {
	mk := func() (*Station, error) { return NewStation(ChipConfig{Seed: 9}) }
	pts, err := ExploreTradeoffs(context.Background(), mk, TradeoffConfig{
		TargetInterval: 1.024,
		TargetTempC:    RefTempC,
		DeltaIntervals: []float64{0, 0.25},
		DeltaTemps:     []float64{0},
		Iterations:     4,
		CoverageGoal:   0.9,
		MaxIterations:  16,
		Options:        Options{FreshRandomPerIteration: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[1].Speedup() <= 1 {
		t.Errorf("reach speedup via facade = %v, want > 1", pts[1].Speedup())
	}
}
