package experiments

import (
	"context"
	"fmt"

	"reaper/internal/core"
	"reaper/internal/dram"
	"reaper/internal/parallel"
	"reaper/internal/stats"
)

// The paper's evidence is population-level: 368 chips across three vendors,
// with every chip showing the same tradeoff trends (Section 6.1.1: "We
// repeat this analysis for all 368 of our DRAM chips and find that each
// chip demonstrates the same trends"). PopulationSweep reproduces that
// aggregation over a configurable fleet of simulated chips.

// PopulationConfig drives the sweep.
type PopulationConfig struct {
	// ChipsPerVendor is the fleet size per vendor (the paper's fleet is
	// ~123 per vendor; benches use a dozen).
	ChipsPerVendor int
	// TargetInterval and Reach are the conditions every chip is evaluated
	// at (+250ms is the paper's headline point).
	TargetInterval float64
	Reach          core.ReachConditions
	Iterations     int
	ChipBits       int64
	WeakScale      float64
	Seed           uint64

	// Workers bounds the worker pool evaluating chips concurrently; <= 0
	// means one worker per CPU. Each chip owns its own device and RNG seed,
	// so the results are identical at any worker count.
	Workers int

	// ShardSize caps how many chips may hold dense device state at once:
	// the fleet is swept in consecutive shards of at most ShardSize chips,
	// each materialized from its seed on spin-up and evicted after its
	// summary is folded, so peak memory is O(ShardSize), not O(fleet).
	// <= 0 sweeps the whole fleet as one shard. Results are byte-identical
	// at every shard size and worker count.
	ShardSize int
}

// DefaultPopulationConfig is a bench-scale fleet.
func DefaultPopulationConfig() PopulationConfig {
	return PopulationConfig{
		ChipsPerVendor: 4,
		TargetInterval: 1.024,
		Reach:          core.ReachConditions{DeltaInterval: 0.25},
		Iterations:     8,
		ChipBits:       16 << 20,
		WeakScale:      30,
		Seed:           500,
	}
}

// ChipResult is one chip's evaluation. JSON field names follow the
// repository-wide lower_snake_case convention (API.md "Naming convention").
type ChipResult struct {
	Vendor   string  `json:"vendor"`
	Seed     uint64  `json:"seed"`
	BER1024  float64 `json:"ber_1024"` // normalized BER at 1024ms/45°C
	Coverage float64 `json:"coverage"` // at the reach conditions vs oracle truth
	FPR      float64 `json:"fpr"`
}

// PopulationResult aggregates a vendor's fleet.
type PopulationResult struct {
	Vendor        string       `json:"vendor"`
	Chips         []ChipResult `json:"chips"`
	BERMean       float64      `json:"ber_mean"`
	BERStd        float64      `json:"ber_std"`
	CoverageMean  float64      `json:"coverage_mean"`
	CoverageMin   float64      `json:"coverage_min"`
	FPRMean       float64      `json:"fpr_mean"`
	FPRMax        float64      `json:"fpr_max"`
	AllChipsAgree bool         `json:"all_chips_agree"` // every chip individually beats brute-force-like coverage
}

// validate rejects configurations before any fleet state is allocated.
func (c PopulationConfig) validate() error {
	if c.ChipsPerVendor <= 0 {
		return fmt.Errorf("experiments: fleet size must be positive (chips per vendor %d)", c.ChipsPerVendor)
	}
	if c.ShardSize < 0 {
		return fmt.Errorf("experiments: shard size must be non-negative (got %d)", c.ShardSize)
	}
	return nil
}

// populationSpec is the compact, seed-derived description of one flattened
// (vendor, chip) job — the only per-chip state a fleet sweep holds for chips
// outside the active shard.
//
// Seeds are laid out in blocks of 1000 chips: block b of vendor vi starts at
// cfg.Seed + (b*len(vendors) + vi)*1000, so no two chips in a fleet share a
// seed at any ChipsPerVendor. Chips below index 1000 get cfg.Seed + vi*1000 +
// c, the seeds cmd/bench's pinned population digests depend on.
func populationSpec(cfg PopulationConfig, vendors []dram.VendorParams, job int) ChipSpec {
	vi, c := job/cfg.ChipsPerVendor, job%cfg.ChipsPerVendor
	block := uint64(c/1000)*uint64(len(vendors)) + uint64(vi)
	return ChipSpec{
		Bits:      cfg.ChipBits,
		WeakScale: cfg.WeakScale,
		Vendor:    vendors[vi],
		Seed:      cfg.Seed + block*1000 + uint64(c%1000),
	}
}

// populationChip materializes, evaluates and releases one job's chip. Every
// profiling draw comes from streams derived from the chip's own seed, so
// evaluation order across chips cannot affect any result.
func populationChip(cfg PopulationConfig, vendors []dram.VendorParams, job int) (ChipResult, error) {
	spec := populationSpec(cfg, vendors, job)
	st, err := spec.NewStation()
	if err != nil {
		return ChipResult{}, err
	}
	truth := core.Truth(st, cfg.TargetInterval, 45)
	prof, err := core.Reach(st, cfg.TargetInterval, cfg.Reach, core.Options{
		Iterations:              cfg.Iterations,
		FreshRandomPerIteration: true,
		Seed:                    spec.Seed,
	})
	if err != nil {
		return ChipResult{}, err
	}
	return ChipResult{
		Vendor:   spec.Vendor.Name,
		Seed:     spec.Seed,
		BER1024:  spec.EffectiveBER(truth.Len()),
		Coverage: core.Coverage(prof.Failures, truth),
		FPR:      core.FalsePositiveRate(prof.Failures, truth),
	}, nil
}

// aggregatePopulation folds the flattened chip results into per-vendor
// aggregates, skipping jobs listed in excluded (quarantined shards).
func aggregatePopulation(cfg PopulationConfig, vendors []dram.VendorParams, chips []ChipResult, excluded map[int]bool) []PopulationResult {
	var out []PopulationResult
	for vi, vendor := range vendors {
		res := PopulationResult{Vendor: vendor.Name, AllChipsAgree: true, CoverageMin: 1}
		var bers, covs, fprs []float64
		for c := 0; c < cfg.ChipsPerVendor; c++ {
			job := vi*cfg.ChipsPerVendor + c
			if excluded[job] {
				// A quarantined chip contributes no data; the fleet cannot
				// claim full agreement over chips it never measured.
				res.AllChipsAgree = false
				continue
			}
			cr := chips[job]
			res.Chips = append(res.Chips, cr)
			bers = append(bers, cr.BER1024)
			covs = append(covs, cr.Coverage)
			fprs = append(fprs, cr.FPR)
			if cr.Coverage < res.CoverageMin {
				res.CoverageMin = cr.Coverage
			}
			if cr.FPR > res.FPRMax {
				res.FPRMax = cr.FPR
			}
			// "Same trend" criterion: reach profiling on this chip
			// achieves high coverage with a nonzero but bounded FPR.
			if cr.Coverage < 0.85 || cr.FPR <= 0 || cr.FPR >= 0.95 {
				res.AllChipsAgree = false
			}
		}
		res.BERMean = stats.Mean(bers)
		res.BERStd = stats.StdDev(bers)
		res.CoverageMean = stats.Mean(covs)
		res.FPRMean = stats.Mean(fprs)
		out = append(out, res)
	}
	return out
}

// PopulationSweep evaluates a fleet of chips per vendor and aggregates.
// Chips are evaluated on the fleet shard executor; every chip owns a
// disjoint simulated device and RNG seed, so results are byte-identical to
// a sequential sweep regardless of cfg.Workers and cfg.ShardSize. Any chip
// failure fails the sweep with the lowest-index chip's error; use
// PopulationSweepPartial for fault-tolerant execution.
func PopulationSweep(ctx context.Context, cfg PopulationConfig) ([]PopulationResult, error) {
	results, failures, err := PopulationSweepPartial(ctx, cfg, parallel.RetryPolicy{})
	if err != nil {
		return nil, err
	}
	if len(failures) > 0 {
		return nil, failures[0].Err
	}
	return results, nil
}

// PopulationSweepPartial is the fault-tolerant sweep: a chip shard that
// fails or panics is retried per policy and then quarantined rather than
// aborting the fleet. The returned failures enumerate the quarantined
// shards (sorted by job index); the aggregates cover only the measured
// chips, and a vendor missing any chip reports AllChipsAgree = false.
func PopulationSweepPartial(ctx context.Context, cfg PopulationConfig, policy parallel.RetryPolicy) ([]PopulationResult, []parallel.JobFailure, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	vendors := dram.Vendors()
	// Flatten the vendor x chip fleet into one job list so a small fleet of
	// large chips still saturates the pool.
	n := len(vendors) * cfg.ChipsPerVendor
	chips, failures, err := runFleetShards(ctx, n, cfg.ShardSize, cfg.Workers, policy,
		func(_ context.Context, job int) (ChipResult, error) {
			return populationChip(cfg, vendors, job)
		})
	if err != nil {
		return nil, nil, err
	}
	excluded := make(map[int]bool, len(failures))
	for _, f := range failures {
		excluded[f.Job] = true
	}
	return aggregatePopulation(cfg, vendors, chips, excluded), failures, nil
}

// PopulationTable renders the aggregation.
func PopulationTable(results []PopulationResult) *Table {
	t := &Table{
		Title:  "Population sweep: per-vendor fleets at +250ms reach",
		Header: []string{"vendor", "chips", "BER@1024 mean", "BER std", "cov mean", "cov min", "FPR mean", "FPR max", "same trend"},
		Caption: "paper: 368 chips; every chip shows the same coverage/FPR/runtime tradeoff " +
			"trends (Section 6.1.1)",
	}
	for _, r := range results {
		t.AddRow(r.Vendor, fmt.Sprint(len(r.Chips)),
			fmt.Sprintf("%.3g", r.BERMean), fmt.Sprintf("%.2g", r.BERStd),
			fmt.Sprintf("%.4f", r.CoverageMean), fmt.Sprintf("%.4f", r.CoverageMin),
			fmt.Sprintf("%.3f", r.FPRMean), fmt.Sprintf("%.3f", r.FPRMax),
			fmt.Sprint(r.AllChipsAgree))
	}
	return t
}
