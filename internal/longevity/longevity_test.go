package longevity

import (
	"math"
	"testing"
	"time"

	"reaper/internal/dram"
	"reaper/internal/ecc"
)

func paperModel() Model {
	return Model{
		Code:       ecc.SECDED(),
		TargetUBER: ecc.UBERConsumer,
		Bytes:      2 << 30,
		Vendor:     dram.VendorB(),
		TempC:      45,
	}
}

func TestValidate(t *testing.T) {
	m := paperModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := m
	bad.TargetUBER = 0
	if bad.Validate() == nil {
		t.Error("zero UBER not rejected")
	}
	bad = m
	bad.Bytes = 0
	if bad.Validate() == nil {
		t.Error("zero capacity not rejected")
	}
	bad = m
	bad.Code = ecc.Code{K: -1, WordBits: 1, DataBits: 1}
	if bad.Validate() == nil {
		t.Error("bad code not rejected")
	}
}

func TestExpectedFailuresMatchesPaperExample(t *testing.T) {
	// Paper Section 6.2.3: 2464 retention failures observed at 1024 ms,
	// 45°C, in 2GB.
	m := paperModel()
	got := m.ExpectedFailures(1.024)
	if got < 2300 || got > 2600 {
		t.Errorf("expected failures = %v, want ~2464", got)
	}
}

func TestMissedFailures(t *testing.T) {
	m := paperModel()
	e := m.ExpectedFailures(1.024)
	if got := m.MissedFailures(1.024, 0.99); math.Abs(got-e*0.01) > 1e-9 {
		t.Errorf("missed at 99%% coverage = %v, want %v", got, e*0.01)
	}
	if m.MissedFailures(1.024, 1) != 0 {
		t.Error("perfect coverage should miss nothing")
	}
	if m.MissedFailures(1.024, -5) != e {
		t.Error("coverage below 0 should clamp")
	}
	if m.MissedFailures(1.024, 2) != 0 {
		t.Error("coverage above 1 should clamp")
	}
}

func TestAccumulationRateAnchor(t *testing.T) {
	// Paper: A = 0.73 cells/hour for 2GB at 1024 ms, 45°C.
	m := paperModel()
	got := m.AccumulationRate(1.024)
	if math.Abs(got-0.73) > 0.01 {
		t.Errorf("accumulation rate = %v, want 0.73", got)
	}
}

func TestPaperWorkedExampleWithBudget(t *testing.T) {
	// With the paper's own Table 1 budget (N = 65), Equation 7 gives
	// T = (65 - 24.6) / 0.73 h ≈ 55 h ≈ 2.3 days.
	m := paperModel()
	d, err := m.LongevityWithBudget(1.024, 0.99, 65)
	if err != nil {
		t.Fatal(err)
	}
	days := d.Hours() / 24
	if math.Abs(days-2.3) > 0.15 {
		t.Errorf("paper worked example: %.2f days, want ~2.3", days)
	}
}

func TestLongevityWithDerivedBudget(t *testing.T) {
	// With our exact Equation 6 solver the SECDED budget is ~90 cells for
	// 2GB (the paper quotes 65 from its 3.8e-9 RBER figure), so the
	// longevity comes out slightly longer but the same order: 2-5 days.
	m := paperModel()
	d, err := m.Longevity(1.024, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	days := d.Hours() / 24
	if days < 1.5 || days > 6 {
		t.Errorf("derived longevity = %.2f days, want the paper's order (~2-5)", days)
	}
}

func TestLongevityFailsWhenCoverageInsufficient(t *testing.T) {
	m := paperModel()
	// 50% coverage misses ~1232 cells against a budget of ~90: impossible.
	if _, err := m.Longevity(1.024, 0.5); err == nil {
		t.Error("insufficient coverage not rejected")
	}
	if _, err := m.LongevityWithBudget(1.024, 0.5, 65); err == nil {
		t.Error("insufficient coverage not rejected with explicit budget")
	}
}

func TestLongevityShrinksWithInterval(t *testing.T) {
	m := paperModel()
	a, err := m.Longevity(1.024, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Longevity(1.536, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b >= a {
		t.Errorf("longevity did not shrink with interval: %v -> %v", a, b)
	}
}

func TestLongevityCapacityInvariance(t *testing.T) {
	// Both the budget N and the accumulation rate A scale linearly with
	// capacity, so full-coverage longevity is capacity-invariant.
	small := paperModel()
	big := paperModel()
	big.Bytes = 64 << 30
	a, err := small.Longevity(1.024, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := big.Longevity(1.024, 1)
	if err != nil {
		t.Fatal(err)
	}
	ratio := a.Hours() / b.Hours()
	if math.Abs(ratio-1) > 0.01 {
		t.Errorf("longevity not capacity invariant: %v vs %v", a, b)
	}
}

func TestMinimumCoverage(t *testing.T) {
	m := paperModel()
	min := m.MinimumCoverage(1.024)
	if min <= 0.9 || min >= 1 {
		t.Errorf("minimum coverage = %v, want high but below 1", min)
	}
	// Just above the minimum must work; just below must fail.
	if _, err := m.Longevity(1.024, min+0.005); err != nil {
		t.Errorf("coverage just above minimum rejected: %v", err)
	}
	if _, err := m.Longevity(1.024, min-0.005); err == nil {
		t.Error("coverage just below minimum accepted")
	}
	// A short interval with almost no failures needs no coverage at all.
	if got := m.MinimumCoverage(0.3); got != 0 {
		t.Errorf("minimum coverage at 300ms = %v, want 0", got)
	}
}

func TestLongevityErrorsOnBadInterval(t *testing.T) {
	m := paperModel()
	if _, err := m.Longevity(0, 1); err == nil {
		t.Error("zero interval not rejected")
	}
	if _, err := m.LongevityWithBudget(-1, 1, 65); err == nil {
		t.Error("negative interval not rejected")
	}
}

func TestLongevityNeverExpiresWithoutAccumulation(t *testing.T) {
	m := paperModel()
	m.Vendor.VRTRatePer2GBAt1024 = 0
	d, err := m.Longevity(1.024, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d < 100*365*24*time.Hour {
		t.Errorf("zero accumulation should give effectively infinite longevity, got %v", d)
	}
}
