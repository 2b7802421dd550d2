// Package spd implements the paper's Section 6.3: the per-chip
// characterization data needed to choose good reach conditions for a real
// system, in a form a vendor could ship in the on-DIMM serial presence
// detect (SPD) ROM — and a planner that turns that data plus system
// constraints into concrete reach conditions.
//
// Characterize measures a chip the way a vendor (or a user with a test
// station) would: bit-error-rate counts at two intervals fix the BER power
// law, counts at two temperatures fix the Equation 1 coefficient, and a
// small reach-condition grid samples the coverage/false-positive/runtime
// tradeoff space. The result serializes to JSON (the SPD payload) and
// PlanReach answers "what reach conditions should this system profile at?".
package spd

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"reaper/internal/core"
	"reaper/internal/memctrl"
)

// TradeoffSample is one measured reach-condition point.
type TradeoffSample struct {
	DeltaInterval     float64 `json:"delta_interval_s"`
	DeltaTempC        float64 `json:"delta_temp_c"`
	Coverage          float64 `json:"coverage"`
	FalsePositiveRate float64 `json:"false_positive_rate"`
	RuntimeRel        float64 `json:"runtime_rel"`
}

// Characterization is the SPD payload: compact per-chip retention
// statistics.
type Characterization struct {
	Vendor string `json:"vendor"`
	// BERAnchor and BERExponent fit BER(t) = BERAnchor*(t/1.024s)^BERExponent
	// at the 45°C reference.
	BERAnchor   float64 `json:"ber_anchor"`
	BERExponent float64 `json:"ber_exponent"`
	// TempCoeff is the Equation 1 exponential temperature coefficient.
	TempCoeff float64 `json:"temp_coeff"`
	// ReferenceInterval is the target interval the tradeoff samples were
	// measured at.
	ReferenceInterval float64          `json:"reference_interval_s"`
	Samples           []TradeoffSample `json:"samples"`
}

// Save writes the characterization as JSON.
func (c *Characterization) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// Load reads a characterization from JSON.
func Load(r io.Reader) (*Characterization, error) {
	var c Characterization
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("spd: decode: %w", err)
	}
	if c.BERAnchor <= 0 || c.BERExponent <= 0 {
		return nil, fmt.Errorf("spd: invalid characterization (anchor %v, exponent %v)",
			c.BERAnchor, c.BERExponent)
	}
	return &c, nil
}

// CharacterizeConfig drives a characterization run.
type CharacterizeConfig struct {
	// Intervals are the two (or more) intervals the BER fit uses.
	Intervals []float64
	// Temps are the two (or more) ambient temperatures for the Equation 1
	// coefficient, measured at Intervals[len-1].
	Temps []float64
	// Iterations per measurement point.
	Iterations int
	// ReferenceInterval and the reach grid for the tradeoff samples.
	ReferenceInterval float64
	DeltaIntervals    []float64
	DeltaTemps        []float64
	// WeakScale is the device's weak-cell amplification; counts are
	// normalized through it so the SPD reports real-device BER.
	WeakScale float64
	Seed      uint64
}

// DefaultCharacterizeConfig returns a quick but usable setup.
func DefaultCharacterizeConfig() CharacterizeConfig {
	return CharacterizeConfig{
		Intervals:         []float64{1.024, 2.048},
		Temps:             []float64{45, 50},
		Iterations:        4,
		ReferenceInterval: 1.024,
		DeltaIntervals:    []float64{0, 0.128, 0.25, 0.5},
		DeltaTemps:        []float64{0, 5},
		WeakScale:         20,
		Seed:              1,
	}
}

// Characterize measures a chip. mkStation must return a fresh station over
// an identically seeded device each call.
func Characterize(ctx context.Context, mkStation func() (*memctrl.Station, error), cfg CharacterizeConfig) (*Characterization, error) {
	if len(cfg.Intervals) < 2 || len(cfg.Temps) < 2 {
		return nil, fmt.Errorf("spd: need >= 2 intervals and >= 2 temps")
	}
	if cfg.WeakScale <= 0 {
		cfg.WeakScale = 1
	}
	st, err := mkStation()
	if err != nil {
		return nil, err
	}
	bits := float64(st.Device().Geometry().TotalBits()) * cfg.WeakScale
	vendor := st.Device().Vendor().Name

	count := func(interval, tempC float64) (float64, error) {
		st.SetAmbient(tempC)
		res, err := core.BruteForce(st, interval, core.Options{
			Iterations:              cfg.Iterations,
			FreshRandomPerIteration: true,
			Seed:                    cfg.Seed,
		})
		if err != nil {
			return 0, err
		}
		return float64(res.Failures.Len()), nil
	}

	// BER power law from the interval sweep at 45°C.
	lo, err := count(cfg.Intervals[0], 45)
	if err != nil {
		return nil, err
	}
	hi, err := count(cfg.Intervals[len(cfg.Intervals)-1], 45)
	if err != nil {
		return nil, err
	}
	if lo <= 0 || hi <= lo {
		return nil, fmt.Errorf("spd: degenerate interval counts %v, %v", lo, hi)
	}
	exponent := math.Log(hi/lo) /
		math.Log(cfg.Intervals[len(cfg.Intervals)-1]/cfg.Intervals[0])
	anchor := lo / bits * math.Pow(1.024/cfg.Intervals[0], exponent)

	// Equation 1 coefficient from the temperature sweep.
	tLo, err := count(cfg.Intervals[len(cfg.Intervals)-1], cfg.Temps[0])
	if err != nil {
		return nil, err
	}
	tHi, err := count(cfg.Intervals[len(cfg.Intervals)-1], cfg.Temps[len(cfg.Temps)-1])
	if err != nil {
		return nil, err
	}
	if tLo <= 0 || tHi <= tLo {
		return nil, fmt.Errorf("spd: degenerate temperature counts %v, %v", tLo, tHi)
	}
	tempCoeff := math.Log(tHi/tLo) / (cfg.Temps[len(cfg.Temps)-1] - cfg.Temps[0])

	c := &Characterization{
		Vendor:            vendor,
		BERAnchor:         anchor,
		BERExponent:       exponent,
		TempCoeff:         tempCoeff,
		ReferenceInterval: cfg.ReferenceInterval,
	}

	// Tradeoff samples via the core explorer on fresh stations.
	points, err := core.ExploreTradeoffs(ctx, mkStation, core.TradeoffConfig{
		TargetInterval: cfg.ReferenceInterval,
		TargetTempC:    45,
		DeltaIntervals: cfg.DeltaIntervals,
		DeltaTemps:     cfg.DeltaTemps,
		Iterations:     8,
		CoverageGoal:   0.95,
		MaxIterations:  32,
		Options:        core.Options{FreshRandomPerIteration: true, Seed: cfg.Seed},
	})
	if err != nil {
		return nil, err
	}
	for _, p := range points {
		c.Samples = append(c.Samples, TradeoffSample{
			DeltaInterval:     p.Reach.DeltaInterval,
			DeltaTempC:        p.Reach.DeltaTempC,
			Coverage:          p.Coverage,
			FalsePositiveRate: p.FalsePositiveRate,
			RuntimeRel:        p.RuntimeRelative,
		})
	}
	return c, nil
}

// Constraints bound the reach conditions a system can accept (Section
// 6.1.2: the mitigation mechanism fixes the tolerable false positive rate,
// reliability fixes the coverage floor).
type Constraints struct {
	MinCoverage          float64
	MaxFalsePositiveRate float64
	// MaxDeltaTempC caps the temperature knob (0 = temperature cannot be
	// manipulated on this system, the REAPER implementation's assumption).
	MaxDeltaTempC float64
}

// PlanReach picks, among the measured samples satisfying the constraints,
// the reach conditions with the lowest profiling runtime. It returns an
// error when no sample qualifies.
func (c *Characterization) PlanReach(con Constraints) (core.ReachConditions, TradeoffSample, error) {
	best := -1
	for i, s := range c.Samples {
		if s.Coverage < con.MinCoverage {
			continue
		}
		if s.FalsePositiveRate > con.MaxFalsePositiveRate {
			continue
		}
		if s.DeltaTempC > con.MaxDeltaTempC {
			continue
		}
		if best < 0 || s.RuntimeRel < c.Samples[best].RuntimeRel {
			best = i
		}
	}
	if best < 0 {
		return core.ReachConditions{}, TradeoffSample{},
			fmt.Errorf("spd: no measured reach condition satisfies coverage >= %v, FPR <= %v, ΔT <= %v",
				con.MinCoverage, con.MaxFalsePositiveRate, con.MaxDeltaTempC)
	}
	s := c.Samples[best]
	return core.ReachConditions{DeltaInterval: s.DeltaInterval, DeltaTempC: s.DeltaTempC}, s, nil
}
