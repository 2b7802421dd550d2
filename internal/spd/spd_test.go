package spd

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"reaper/internal/core"
	"reaper/internal/dram"
	"reaper/internal/memctrl"
)

// BER evaluates the fitted bit error rate at interval t (seconds) and
// ambient temperature tempC.
func (c *Characterization) BER(t, tempC float64) float64 {
	if t <= 0 {
		return 0
	}
	return c.BERAnchor * math.Pow(t/1.024, c.BERExponent) * math.Exp(c.TempCoeff*(tempC-45))
}

func mkStation(seed uint64) func() (*memctrl.Station, error) {
	return func() (*memctrl.Station, error) {
		dev, err := dram.NewDevice(dram.Config{
			Geometry:  dram.Geometry{Banks: 8, RowsPerBank: 64, WordsPerRow: 256},
			Vendor:    dram.VendorB(),
			Seed:      seed,
			WeakScale: 20,
		})
		if err != nil {
			return nil, err
		}
		return memctrl.NewStation(nil, dev)
	}
}

func characterized(t *testing.T) *Characterization {
	t.Helper()
	cfg := DefaultCharacterizeConfig()
	c, err := Characterize(context.Background(), mkStation(11), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCharacterizeRecoversCalibration(t *testing.T) {
	c := characterized(t)
	v := dram.VendorB()
	if c.Vendor != "B" {
		t.Errorf("vendor = %s", c.Vendor)
	}
	// The measured BER exponent should be near the calibrated 2.8. The
	// measurement sees single-run multi-pattern union counts, so allow a
	// generous band.
	if math.Abs(c.BERExponent-v.BERExponent) > 1.0 {
		t.Errorf("measured BER exponent = %v, calibrated %v", c.BERExponent, v.BERExponent)
	}
	// The measured Equation 1 coefficient near the calibrated 0.20.
	if math.Abs(c.TempCoeff-v.TempCoeff) > 0.08 {
		t.Errorf("measured temp coeff = %v, calibrated %v", c.TempCoeff, v.TempCoeff)
	}
	// The fitted BER at 1024ms within a factor ~2 of calibration.
	got := c.BER(1.024, 45)
	if got < v.BERAt1024ms/2 || got > v.BERAt1024ms*3 {
		t.Errorf("fitted BER@1024ms = %v, calibrated %v", got, v.BERAt1024ms)
	}
	if c.BER(0, 45) != 0 {
		t.Error("BER at t=0 must be 0")
	}
	if len(c.Samples) != 8 {
		t.Errorf("samples = %d, want 8 (4 intervals x 2 temps)", len(c.Samples))
	}
}

func TestCharacterizeValidation(t *testing.T) {
	cfg := DefaultCharacterizeConfig()
	cfg.Intervals = []float64{1.024}
	if _, err := Characterize(context.Background(), mkStation(1), cfg); err == nil {
		t.Error("single interval not rejected")
	}
	cfg = DefaultCharacterizeConfig()
	cfg.Temps = []float64{45}
	if _, err := Characterize(context.Background(), mkStation(1), cfg); err == nil {
		t.Error("single temperature not rejected")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	c := characterized(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ber_anchor") {
		t.Error("JSON payload missing expected fields")
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.BERAnchor != c.BERAnchor || back.BERExponent != c.BERExponent ||
		back.TempCoeff != c.TempCoeff || len(back.Samples) != len(c.Samples) {
		t.Error("round trip lost data")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(strings.NewReader(`{"ber_anchor":0}`)); err == nil {
		t.Error("degenerate payload accepted")
	}
}

func TestPlanReachPicksCheapestFeasible(t *testing.T) {
	c := &Characterization{
		BERAnchor: 1e-7, BERExponent: 2.8,
		Samples: []TradeoffSample{
			{DeltaInterval: 0, Coverage: 1.0, FalsePositiveRate: 0, RuntimeRel: 1.0},
			{DeltaInterval: 0.25, Coverage: 0.99, FalsePositiveRate: 0.4, RuntimeRel: 0.4},
			{DeltaInterval: 0.5, Coverage: 0.999, FalsePositiveRate: 0.6, RuntimeRel: 0.3},
			{DeltaInterval: 0.25, DeltaTempC: 5, Coverage: 0.999, FalsePositiveRate: 0.7, RuntimeRel: 0.2},
		},
	}
	// FPR cap of 0.5 excludes the cheaper high-FPR points.
	reach, s, err := c.PlanReach(Constraints{MinCoverage: 0.98, MaxFalsePositiveRate: 0.5, MaxDeltaTempC: 10})
	if err != nil {
		t.Fatal(err)
	}
	if reach.DeltaInterval != 0.25 || reach.DeltaTempC != 0 || s.RuntimeRel != 0.4 {
		t.Errorf("planned %+v (%+v), want the +250ms point", reach, s)
	}
	// Allowing higher FPR and temperature picks the fastest point.
	reach, _, err = c.PlanReach(Constraints{MinCoverage: 0.98, MaxFalsePositiveRate: 0.8, MaxDeltaTempC: 10})
	if err != nil {
		t.Fatal(err)
	}
	if reach.DeltaTempC != 5 {
		t.Errorf("planned %+v, want the +5°C point", reach)
	}
	// A system that cannot heat its DRAM is restricted to ΔT = 0.
	reach, _, err = c.PlanReach(Constraints{MinCoverage: 0.98, MaxFalsePositiveRate: 0.8, MaxDeltaTempC: 0})
	if err != nil {
		t.Fatal(err)
	}
	if reach.DeltaTempC != 0 || reach.DeltaInterval != 0.5 {
		t.Errorf("planned %+v, want the +500ms interval-only point", reach)
	}
	// Impossible constraints are reported (drop the self-scoring
	// brute-force point, which trivially has coverage 1 and FPR 0).
	noBrute := &Characterization{Samples: c.Samples[1:]}
	if _, _, err := noBrute.PlanReach(Constraints{MinCoverage: 0.9999, MaxFalsePositiveRate: 0.01}); err == nil {
		t.Error("infeasible constraints not rejected")
	}
}

func TestPlanReachOnMeasuredChip(t *testing.T) {
	c := characterized(t)
	reach, sample, err := c.PlanReach(Constraints{
		MinCoverage:          0.95,
		MaxFalsePositiveRate: 0.6,
		MaxDeltaTempC:        0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if reach.DeltaInterval <= 0 {
		t.Errorf("planned reach %+v should extend the interval", reach)
	}
	if sample.RuntimeRel >= 1 {
		t.Errorf("planned point not faster than brute force: %+v", sample)
	}
	// The plan must actually work: profile a fresh chip at the planned
	// conditions and verify the promised coverage against ground truth.
	st, err := mkStation(11)()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Reach(st, c.ReferenceInterval, reach,
		core.Options{Iterations: 8, FreshRandomPerIteration: true})
	if err != nil {
		t.Fatal(err)
	}
	truth := core.Truth(st, c.ReferenceInterval, 45)
	if cov := core.Coverage(res.Failures, truth); cov < 0.9 {
		t.Errorf("planned conditions delivered coverage %v, want >= 0.9", cov)
	}
}
