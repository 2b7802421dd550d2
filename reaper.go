// Package reaper is the public API of this repository: a full reproduction
// of "The Reach Profiler (REAPER): Enabling the Mitigation of DRAM Retention
// Failures via Profiling at Aggressive Conditions" (Patel, Kim, Mutlu,
// ISCA 2017) as a Go library.
//
// The paper's experiments ran on 368 real LPDDR4 chips inside a thermal
// chamber; this library substitutes a behavioural DRAM device model
// calibrated to the paper's published statistics (see DESIGN.md), so every
// experiment — characterization, reach-condition tradeoffs, ECC budgeting,
// profile longevity, and end-to-end system evaluation — runs end to end on
// a laptop.
//
// # Quick start
//
//	st, _ := reaper.NewStation(reaper.ChipConfig{
//		CapacityBits: 1 << 30, // 1 Gbit test chip
//		Vendor:       reaper.VendorB(),
//		Seed:         42,
//	})
//	result, _ := reaper.Profile(st, 1.024, reaper.ReachConditions{DeltaInterval: 0.25},
//		reaper.Options{Iterations: 16, FreshRandomPerIteration: true})
//	truth := reaper.Truth(st, 1.024, 45)
//	fmt.Println(reaper.Coverage(result.Failures, truth))
//
// The subsystems are re-exported here by alias; their full documentation
// lives in the internal packages:
//
//   - internal/dram     — the LPDDR4 device retention model
//   - internal/thermal  — the PID-controlled thermal chamber
//   - internal/memctrl  — the SoftMC-style test station
//   - internal/patterns — retention-test data patterns
//   - internal/core     — brute-force and reach profiling + metrics
//   - internal/ecc      — UBER/RBER analysis and a SECDED(72,64) codec
//   - internal/longevity — the Equation 7 profile-longevity model
//   - internal/mitigate — ArchShield / RAIDR
//   - internal/perfmodel, internal/power, internal/workload,
//     internal/sysperf — the end-to-end evaluation substrate
package reaper

import (
	"context"
	"fmt"

	"reaper/internal/core"
	"reaper/internal/dram"
	"reaper/internal/ecc"
	"reaper/internal/longevity"
	"reaper/internal/memctrl"
	"reaper/internal/patterns"
	"reaper/internal/thermal"
)

// Re-exported types. The aliases make the internal implementations usable
// by downstream importers of this module.
type (
	// Device is the simulated LPDDR4 chip.
	Device = dram.Device
	// Geometry describes a chip's bank/row/word organization.
	Geometry = dram.Geometry
	// VendorParams calibrates a device's retention statistics.
	VendorParams = dram.VendorParams
	// Station is the SoftMC-style test station a profiler drives, over one
	// chip or the chips of a module.
	Station = memctrl.Station
	// Chamber is the PID-controlled thermal chamber.
	Chamber = thermal.Chamber
	// Pattern is a retention-test data pattern.
	Pattern = patterns.Pattern
	// FailureSet is a set of failing cell addresses.
	FailureSet = core.FailureSet
	// Options configures a profiling run.
	Options = core.Options
	// Result is a profiling run's outcome.
	Result = core.Result
	// ReachConditions are the deltas above target conditions to profile at.
	ReachConditions = core.ReachConditions
	// TradeoffConfig and TradeoffPoint drive the Figure 9/10 exploration.
	TradeoffConfig = core.TradeoffConfig
	TradeoffPoint  = core.TradeoffPoint
	// ECCCode is a k-bit-correcting code for the UBER model.
	ECCCode = ecc.Code
	// LongevityModel evaluates Equation 7 (time before reprofiling).
	LongevityModel = longevity.Model
	// Module is a multi-chip DRAM module: a Station driving several chips.
	Module = memctrl.Station
	// TestStation is the profiling-facing hardware interface a Station
	// implements.
	TestStation = core.TestStation
)

// VendorA is calibrated vendor profile A (paper Equation 1, Section 5).
func VendorA() VendorParams { return dram.VendorA() }

// VendorB is calibrated vendor profile B, the paper's representative chip.
func VendorB() VendorParams { return dram.VendorB() }

// VendorC is calibrated vendor profile C, the most temperature-sensitive.
func VendorC() VendorParams { return dram.VendorC() }

// NoECC is the no-correction baseline (paper Table 1).
func NoECC() ECCCode { return ecc.NoECC() }

// SECDED is single-error-correct double-error-detect ECC (paper Table 1).
func SECDED() ECCCode { return ecc.SECDED() }

// ECC2 is two-error-correcting ECC (paper Table 1).
func ECC2() ECCCode { return ecc.ECC2() }

// Standard UBER targets (paper Section 6.2.2).
const (
	UBERConsumer   = ecc.UBERConsumer
	UBEREnterprise = ecc.UBEREnterprise
)

// RefTempC is the reference ambient temperature (45°C) of the paper's
// characterization.
const RefTempC = dram.RefTempC

// ChipConfig configures a simulated chip and its test station.
type ChipConfig struct {
	// CapacityBits sizes the chip; the geometry uses 8 banks and 2KB rows
	// (paper Table 2). Default: 64 Mbit (a fast test-scale chip).
	CapacityBits int64
	// Vendor selects the retention calibration; default VendorB (the
	// paper's representative chip vendor).
	Vendor VendorParams
	// Seed makes the chip (and every experiment on it) reproducible.
	Seed uint64
	// WeakScale amplifies weak-cell density for scaled-down chips so they
	// carry statistically meaningful failure populations. Default 20 for
	// sub-Gbit chips, 1 otherwise.
	WeakScale float64
	// WithThermalChamber couples the station to a simulated PID thermal
	// chamber (temperature changes then take realistic settle time and
	// carry sensor noise). Without it temperature changes are ideal and
	// instantaneous.
	WithThermalChamber bool
	// DisableVRT / DisableDPD build ablated devices for model studies.
	DisableVRT bool
	DisableDPD bool
}

// NewStation builds a simulated chip and the test station driving it.
func NewStation(cfg ChipConfig) (*Station, error) { return NewModule(1, cfg) }

// NewModule builds a multi-chip module of identically configured (but
// independently seeded) chips behind one station and optional chamber.
// Chip 0 carries cfg.Seed, so a one-chip module is NewStation's chip.
func NewModule(chips int, cfg ChipConfig) (*Module, error) {
	if chips <= 0 {
		return nil, fmt.Errorf("reaper: module needs at least one chip")
	}
	if cfg.CapacityBits == 0 {
		cfg.CapacityBits = 64 << 20
	}
	if cfg.Vendor.Name == "" {
		cfg.Vendor = VendorB()
	}
	if cfg.WeakScale == 0 {
		if cfg.CapacityBits < 1<<30 {
			cfg.WeakScale = 20
		} else {
			cfg.WeakScale = 1
		}
	}
	devs := make([]*dram.Device, chips)
	for i := range devs {
		d, err := dram.NewDevice(dram.Config{
			Geometry:   dram.GeometryForBits(cfg.CapacityBits),
			Vendor:     cfg.Vendor,
			Seed:       cfg.Seed + uint64(i)*7919,
			WeakScale:  cfg.WeakScale,
			DisableVRT: cfg.DisableVRT,
			DisableDPD: cfg.DisableDPD,
		})
		if err != nil {
			return nil, err
		}
		devs[i] = d
	}
	var chamber *thermal.Chamber
	if cfg.WithThermalChamber {
		chamber = thermal.NewChamber(cfg.Seed ^ 0xC4A3)
		if _, ok := chamber.SettleTo(RefTempC, 0.25, 7200); !ok {
			return nil, fmt.Errorf("reaper: thermal chamber failed to settle")
		}
	}
	return memctrl.NewStation(chamber, devs...)
}

// BruteForce runs the paper's Algorithm 1 at the given refresh interval
// (seconds) — the baseline profiling mechanism.
func BruteForce(st TestStation, tREFI float64, opt Options) (*Result, error) {
	return core.BruteForce(st, tREFI, opt)
}

// Profile runs reach profiling: Algorithm 1 executed at target conditions
// plus the reach deltas (longer interval and/or higher temperature), the
// paper's contribution. Zero deltas degenerate to BruteForce.
func Profile(st TestStation, targetInterval float64, reach ReachConditions, opt Options) (*Result, error) {
	return core.Reach(st, targetInterval, reach, opt)
}

// Truth returns the simulator's ground-truth failing-cell set at the target
// conditions — the scoring reference only a model (not hardware) can provide.
// On a module, check st.Err afterwards for a chip-pool failure.
func Truth(st *Station, targetInterval, targetTempC float64) *FailureSet {
	return core.Truth(st, targetInterval, targetTempC)
}

// Coverage is the fraction of true failures the profile found — the
// paper's primary profiling quality metric.
func Coverage(found, truth *FailureSet) float64 { return core.Coverage(found, truth) }

// FalsePositiveRate is the fraction of profiled cells that are not true
// failures at target conditions, the cost axis of the tradeoff figures.
func FalsePositiveRate(found, truth *FailureSet) float64 {
	return core.FalsePositiveRate(found, truth)
}

// ExploreTradeoffs sweeps a grid of reach conditions and measures coverage,
// false positive rate, and runtime at each (the paper's Figures 9 and 10).
// mkStation must build an identically seeded station each call; it is called
// at most once per concurrently evaluated point, because stations are rolled
// back to their construction savepoint between points (a station that
// refuses a savepoint, such as one with a thermal chamber, is rebuilt per
// point instead). Cancelling ctx aborts the grid.
func ExploreTradeoffs(ctx context.Context, mkStation func() (*Station, error), cfg TradeoffConfig) ([]TradeoffPoint, error) {
	return core.ExploreTradeoffs(ctx, mkStation, cfg)
}

// StandardPatterns returns the six canonical retention-test patterns and
// their inverses (12 total).
func StandardPatterns(seed uint64) []Pattern { return patterns.StandardWithInverses(seed) }
