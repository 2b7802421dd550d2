package core

import (
	"context"
	"fmt"

	"reaper/internal/memctrl"
	"reaper/internal/parallel"
	"reaper/internal/telemetry"
)

// TradeoffConfig drives the reach-condition exploration of the paper's
// Section 6.1: a grid of (Δ refresh interval, Δ temperature) reach
// conditions evaluated for coverage, false positive rate (Figure 9), and
// profiling runtime to a coverage goal (Figure 10).
type TradeoffConfig struct {
	// TargetInterval (seconds) and TargetTempC are the conditions the
	// system will actually operate at.
	TargetInterval float64
	TargetTempC    float64

	// DeltaIntervals and DeltaTemps define the reach grid. Include 0 in
	// both to get the brute-force reference point.
	DeltaIntervals []float64
	DeltaTemps     []float64

	// Iterations is where coverage and false positive rate are sampled
	// (the paper uses 16 iterations of 6 patterns and their inverses).
	Iterations int

	// CoverageGoal is the coverage at which runtime is measured (the
	// paper's Figure 10 uses 90%).
	CoverageGoal float64

	// MaxIterations caps the runtime search. Defaults to 4*Iterations.
	MaxIterations int

	// Options is the base profiling configuration (patterns, seed).
	Options Options

	// Reference selects what coverage and false positives are scored
	// against. The default, ReferenceEmpirical, follows the paper's
	// Figure 9/10 methodology: the reference set is the result of
	// brute-force profiling at the *target* conditions for Iterations
	// rounds, so the (0,0) grid point has coverage 1 and FPR 0 by
	// construction. ReferenceOracle scores against the simulator's ground
	// truth instead (impossible on real hardware, useful for model
	// analysis).
	Reference ReferenceMode

	// Workers bounds the worker pool evaluating grid points concurrently;
	// <= 0 means one worker per CPU. Every grid point profiles its own
	// freshly constructed station (mkStation), so results are identical at
	// any worker count.
	Workers int
}

// ReferenceMode selects the scoring reference for tradeoff exploration.
type ReferenceMode int

const (
	// ReferenceEmpirical scores against a brute-force profile taken at the
	// target conditions (the paper's methodology).
	ReferenceEmpirical ReferenceMode = iota
	// ReferenceOracle scores against the device model's latent ground
	// truth.
	ReferenceOracle
)

func (c *TradeoffConfig) fill() error {
	if c.TargetInterval <= 0 {
		return fmt.Errorf("core: tradeoff target interval must be positive")
	}
	if c.Iterations == 0 {
		c.Iterations = 16
	}
	if c.CoverageGoal == 0 {
		c.CoverageGoal = 0.90
	}
	if c.CoverageGoal <= 0 || c.CoverageGoal > 1 {
		return fmt.Errorf("core: coverage goal %v out of (0,1]", c.CoverageGoal)
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 4 * c.Iterations
	}
	if len(c.DeltaIntervals) == 0 || len(c.DeltaTemps) == 0 {
		return fmt.Errorf("core: empty reach grid")
	}
	return nil
}

// TradeoffPoint is the measured outcome at one reach condition. The JSON
// field names follow the repository-wide lower_snake_case convention
// (API.md "Naming convention") shared with internal/testprog.
type TradeoffPoint struct {
	Reach ReachConditions `json:"reach"`

	// Coverage and FalsePositiveRate are sampled after
	// TradeoffConfig.Iterations iterations, scored against the reference
	// at the *target* conditions (empirical brute-force profile or oracle,
	// per TradeoffConfig.Reference).
	Coverage          float64 `json:"coverage"`
	FalsePositiveRate float64 `json:"false_positive_rate"`

	// RuntimeSeconds is the simulated profiling time until CoverageGoal
	// was reached (or until MaxIterations, if it never was).
	RuntimeSeconds float64 `json:"runtime_seconds"`
	// RuntimeRelative is RuntimeSeconds normalized to the brute-force
	// point (Δ = 0, 0); the paper's Figure 10 contours. Zero until
	// normalized by ExploreTradeoffs.
	RuntimeRelative float64 `json:"runtime_relative"`
	// IterationsToGoal is how many iterations the goal took.
	IterationsToGoal int `json:"iterations_to_goal"`
	// ReachedGoal reports whether the coverage goal was attained within
	// MaxIterations.
	ReachedGoal bool `json:"reached_goal"`
	// TruthSize is the reference failing-cell count at the target.
	TruthSize int `json:"truth_size"`
}

// Speedup returns the runtime speedup over brute force (1/RuntimeRelative).
func (p TradeoffPoint) Speedup() float64 {
	if p.RuntimeRelative <= 0 {
		return 0
	}
	return 1 / p.RuntimeRelative
}

// ExploreTradeoffs measures every point of the reach grid. mkStation must
// return a freshly constructed station over an *identically seeded* device
// each call, so that every grid point profiles the same chip from the same
// initial state. Points are returned in row-major order: for each delta
// temperature, each delta interval. Cancelling ctx aborts the grid.
func ExploreTradeoffs(ctx context.Context, mkStation func() (*memctrl.Station, error), cfg TradeoffConfig) ([]TradeoffPoint, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}

	// Build the scoring reference first: every grid point scores against the
	// same brute-force profile at target conditions.
	var reference *FailureSet
	if cfg.Reference == ReferenceEmpirical {
		st, err := mkStation()
		if err != nil {
			return nil, fmt.Errorf("core: mkStation: %w", err)
		}
		if st.Ambient() != cfg.TargetTempC {
			st.SetAmbient(cfg.TargetTempC)
		}
		refOpt := cfg.Options
		refOpt.fill()
		refOpt.Iterations = cfg.Iterations
		refOpt.OnIteration = nil
		refRes, err := BruteForce(st, cfg.TargetInterval, refOpt)
		if err != nil {
			return nil, err
		}
		reference = refRes.Failures
	}

	// Grid points are independent — each profiles a fresh identically-seeded
	// station and only reads the shared reference — so fan them out on the
	// pool in row-major submission order.
	nI := len(cfg.DeltaIntervals)
	points, err := parallel.Map(ctx, len(cfg.DeltaTemps)*nI, cfg.Workers,
		func(_ context.Context, job int) (TradeoffPoint, error) {
			dT := cfg.DeltaTemps[job/nI]
			dI := cfg.DeltaIntervals[job%nI]
			st, err := mkStation()
			if err != nil {
				return TradeoffPoint{}, fmt.Errorf("core: mkStation: %w", err)
			}
			return measurePoint(st, cfg, reference, ReachConditions{DeltaInterval: dI, DeltaTempC: dT})
		})
	if err != nil {
		return nil, err
	}
	var bruteRuntime float64
	for _, pt := range points {
		if pt.Reach.DeltaInterval == 0 && pt.Reach.DeltaTempC == 0 {
			bruteRuntime = pt.RuntimeSeconds
		}
	}
	if bruteRuntime > 0 {
		for i := range points {
			points[i].RuntimeRelative = points[i].RuntimeSeconds / bruteRuntime
		}
	}

	// Grid-level telemetry is recorded here, sequentially over the ordered
	// result slice, so the snapshot is identical at any worker count.
	if reg := telemetry.FromContext(ctx); reg != nil {
		covHist := reg.Histogram("core_tradeoff_coverage", unitFractionBounds)
		fprHist := reg.Histogram("core_tradeoff_false_positive_rate", unitFractionBounds)
		for _, pt := range points {
			reg.Counter("core_tradeoff_points_total").Inc()
			if pt.ReachedGoal {
				reg.Counter("core_tradeoff_goal_reached_total").Inc()
			}
			covHist.Observe(pt.Coverage)
			fprHist.Observe(pt.FalsePositiveRate)
		}
	}
	return points, nil
}

// unitFractionBounds buckets coverage and false-positive-rate observations.
var unitFractionBounds = []float64{0.5, 0.8, 0.9, 0.95, 0.99, 1}

func measurePoint(st *memctrl.Station, cfg TradeoffConfig, reference *FailureSet, reach ReachConditions) (TradeoffPoint, error) {
	if st.Ambient() != cfg.TargetTempC {
		st.SetAmbient(cfg.TargetTempC)
	}
	truth := reference
	if truth == nil { // ReferenceOracle
		truth = Truth(st, cfg.TargetInterval, cfg.TargetTempC)
	}
	pt := TradeoffPoint{Reach: reach, TruthSize: truth.Len()}

	opt := cfg.Options
	opt.fill()
	opt.Iterations = cfg.MaxIterations
	// Grid points run concurrently; a tracer is single-owner, so profiling
	// trace events are dropped here (the commutative Telemetry counters are
	// kept — they aggregate identically at any worker count).
	opt.Tracer = nil
	var runtimeStart float64
	sampled := false
	opt.OnIteration = func(r *Result) bool {
		cov := Coverage(r.Failures, truth)
		if r.Iterations == cfg.Iterations {
			pt.Coverage = cov
			pt.FalsePositiveRate = FalsePositiveRate(r.Failures, truth)
			sampled = true
		}
		if !pt.ReachedGoal && cov >= cfg.CoverageGoal {
			pt.ReachedGoal = true
			pt.IterationsToGoal = r.Iterations
			pt.RuntimeSeconds = r.Records[len(r.Records)-1].ClockSeconds - runtimeStart
		}
		// Keep going until both measurements are in hand.
		return !(sampled && pt.ReachedGoal)
	}

	// Record the clock before profiling begins (after any temperature
	// settle, which Reach performs internally; settle time is charged to
	// the run's stats but runtime-to-goal measures the profiling loop,
	// matching the paper's per-round runtime model).
	orig := st.Ambient()
	if reach.DeltaTempC > 0 {
		st.SetAmbient(orig + reach.DeltaTempC)
	}
	runtimeStart = st.Clock()
	res, err := BruteForce(st, cfg.TargetInterval+reach.DeltaInterval, opt)
	if reach.DeltaTempC > 0 {
		st.SetAmbient(orig)
	}
	if err != nil {
		return pt, err
	}
	if !sampled {
		// Run ended before the sampling iteration (should not happen since
		// MaxIterations >= Iterations, but stay safe).
		pt.Coverage = Coverage(res.Failures, truth)
		pt.FalsePositiveRate = FalsePositiveRate(res.Failures, truth)
	}
	if !pt.ReachedGoal {
		pt.IterationsToGoal = res.Iterations
		pt.RuntimeSeconds = res.RuntimeSeconds()
	}
	return pt, nil
}
