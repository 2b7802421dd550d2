package experiments

import (
	"context"

	"reaper/internal/core"
	"reaper/internal/parallel"
	"reaper/internal/patterns"
)

// Ablation experiments: rebuild the chip with one retention phenomenon
// removed and show which of the paper's design conclusions it is
// responsible for. These go beyond the paper's own evaluation (DESIGN.md
// section 5) but directly test its causal claims.

// VRTAblationResult contrasts failure accumulation with and without VRT.
type VRTAblationResult struct {
	// NewCellsPerHourWithVRT / WithoutVRT are steady-state accumulation
	// rates after the base population is discovered.
	NewCellsPerHourWithVRT    float64
	NewCellsPerHourWithoutVRT float64
}

// AblationVRT measures post-discovery failure accumulation on a chip with
// VRT and on an identical chip without it. To separate genuine *new*
// failures from the long discovery tail of the base population, the base
// population is first exhausted with an aggressive reach profile (+1 s, 20
// iterations); accumulation is then counted against that baseline over
// simHours of periodic testing. Without VRT the failing population is
// finite and accumulation collapses — one-time offline profiling would
// suffice; with VRT it never does (Corollary 2: online profiling is
// required *because of* VRT). The two arms run on at most workers
// goroutines (<= 0 means one per CPU).
func AblationVRT(ctx context.Context, chip ChipSpec, intervalS float64, iterations int, simHours float64, workers int) (*VRTAblationResult, error) {
	run := func(disable bool) (float64, error) {
		c := chip
		c.DisableVRT = disable
		st, err := c.NewStation()
		if err != nil {
			return 0, err
		}
		// Exhaust the base population.
		seen, err := core.Reach(st, intervalS, core.ReachConditions{DeltaInterval: 1.0},
			core.Options{Iterations: 20, FreshRandomPerIteration: true, Seed: c.Seed})
		if err != nil {
			return 0, err
		}
		known := seen.Failures.Clone()
		// Periodic testing over simHours; count arrivals beyond the
		// exhausted baseline.
		gap := simHours * 3600 / float64(iterations)
		start := st.Clock()
		newCells := 0
		for it := 0; it < iterations; it++ {
			r, err := core.BruteForce(st, intervalS, core.Options{
				Iterations:              1,
				FreshRandomPerIteration: true,
				Seed:                    uint64(it) * 7919,
			})
			if err != nil {
				return 0, err
			}
			for _, b := range r.Failures.Sorted() {
				if known.Add(b) {
					newCells++
				}
			}
			if idle := gap - r.RuntimeSeconds(); idle > 0 {
				st.Wait(idle)
			}
		}
		hours := (st.Clock() - start) / 3600
		return float64(newCells) / hours, nil
	}
	// The two arms build independent chips; run them as parallel thunks.
	var with, without float64
	err := parallel.Do(ctx, workers,
		func(context.Context) error { var e error; with, e = run(false); return e },
		func(context.Context) error { var e error; without, e = run(true); return e },
	)
	if err != nil {
		return nil, err
	}
	return &VRTAblationResult{
		NewCellsPerHourWithVRT:    with,
		NewCellsPerHourWithoutVRT: without,
	}, nil
}

// DPDAblationResult contrasts single-pattern coverage with and without data
// pattern dependence.
type DPDAblationResult struct {
	// SinglePatternCoverageWithDPD / WithoutDPD are the coverages achieved
	// by testing only one pattern pair (solid 0s/1s), scored against the
	// multi-pattern ground truth.
	SinglePatternCoverageWithDPD    float64
	SinglePatternCoverageWithoutDPD float64
}

// AblationDPD profiles with a single pattern pair on a chip with DPD and on
// an identical chip without it. Without DPD one pattern pair suffices; with
// DPD it cannot reach the worst-case-pattern population (Corollary 3:
// multiple data patterns are required *because of* DPD). The two arms run
// on at most workers goroutines (<= 0 means one per CPU).
func AblationDPD(ctx context.Context, chip ChipSpec, intervalS float64, iterations, workers int) (*DPDAblationResult, error) {
	run := func(disable bool) (float64, error) {
		c := chip
		c.DisableDPD = disable
		c.DisableVRT = true // isolate the DPD effect
		st, err := c.NewStation()
		if err != nil {
			return 0, err
		}
		truth := core.Truth(st, intervalS, 45)
		// Profile slightly above target so per-read probabilities are
		// high and the remaining gap is purely pattern coverage.
		res, err := core.Reach(st, intervalS, core.ReachConditions{DeltaInterval: 0.25}, core.Options{
			Patterns:   []patterns.Pattern{patterns.Solid0(), patterns.Solid1()},
			Iterations: iterations,
		})
		if err != nil {
			return 0, err
		}
		return core.Coverage(res.Failures, truth), nil
	}
	var with, without float64
	err := parallel.Do(ctx, workers,
		func(context.Context) error { var e error; with, e = run(false); return e },
		func(context.Context) error { var e error; without, e = run(true); return e },
	)
	if err != nil {
		return nil, err
	}
	return &DPDAblationResult{
		SinglePatternCoverageWithDPD:    with,
		SinglePatternCoverageWithoutDPD: without,
	}, nil
}

// KnobPoint is one reach-knob measurement.
type KnobPoint struct {
	Reach    core.ReachConditions
	Coverage float64
	FPR      float64
}

// KnobAblationResult compares the two reach knobs at matched aggressiveness.
type KnobAblationResult struct {
	IntervalOnly KnobPoint // +Δt, +0°C
	TempOnly     KnobPoint // +0s, +ΔT
	Combined     KnobPoint // +Δt/2, +ΔT/2
}

// AblationReachKnobs measures interval-only, temperature-only, and combined
// reach at roughly equivalent strengths (using the paper's ~1s-per-10°C
// equivalence at these conditions), demonstrating Section 5.5's claim that
// the two knobs are interchangeable. All three are scored against the
// oracle truth at the target conditions on identically seeded chips, on at
// most workers goroutines (<= 0 means one per CPU).
func AblationReachKnobs(ctx context.Context, chip ChipSpec, target, deltaInterval, deltaTemp float64, iterations, workers int) (*KnobAblationResult, error) {
	measure := func(reach core.ReachConditions) (KnobPoint, error) {
		st, err := chip.NewStation()
		if err != nil {
			return KnobPoint{}, err
		}
		truth := core.Truth(st, target, 45)
		res, err := core.Reach(st, target, reach, core.Options{
			Iterations:              iterations,
			FreshRandomPerIteration: true,
			Seed:                    chip.Seed,
		})
		if err != nil {
			return KnobPoint{}, err
		}
		return KnobPoint{
			Reach:    reach,
			Coverage: core.Coverage(res.Failures, truth),
			FPR:      core.FalsePositiveRate(res.Failures, truth),
		}, nil
	}
	// The three knob settings profile independent identically-seeded chips.
	points, err := parallel.Map(ctx, 3, workers,
		func(_ context.Context, i int) (KnobPoint, error) {
			switch i {
			case 0:
				return measure(core.ReachConditions{DeltaInterval: deltaInterval})
			case 1:
				return measure(core.ReachConditions{DeltaTempC: deltaTemp})
			default:
				return measure(core.ReachConditions{
					DeltaInterval: deltaInterval / 2,
					DeltaTempC:    deltaTemp / 2,
				})
			}
		})
	if err != nil {
		return nil, err
	}
	return &KnobAblationResult{
		IntervalOnly: points[0],
		TempOnly:     points[1],
		Combined:     points[2],
	}, nil
}
