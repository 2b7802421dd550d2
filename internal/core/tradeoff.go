package core

import (
	"context"
	"fmt"
	"sync"

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

	// Workers bounds the worker pool evaluating grid points concurrently;
	// <= 0 means one worker per CPU. Every grid point starts from a station
	// in the state mkStation built it in — at most one station per
	// concurrent point, rolled back to its construction savepoint between
	// points — so results are identical at any worker count.
	Workers int
}

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
	// Coverage and FPR are sampled at Iterations, which the runtime search
	// must therefore reach.
	if c.Iterations < 0 || c.MaxIterations < c.Iterations {
		return fmt.Errorf("core: iterations %d out of [0, max iterations %d]", c.Iterations, c.MaxIterations)
	}
	if len(c.DeltaIntervals) == 0 || len(c.DeltaTemps) == 0 {
		return fmt.Errorf("core: empty reach grid")
	}
	// A point is reported with its deltas; profiling applies only raised
	// conditions, so a negative delta would be mislabeled.
	for _, d := range c.DeltaIntervals {
		if d < 0 {
			return fmt.Errorf("core: negative delta interval %v", d)
		}
	}
	for _, d := range c.DeltaTemps {
		if d < 0 {
			return fmt.Errorf("core: negative delta temperature %v", d)
		}
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
	// at the *target* conditions: the paper's Figure 9/10 methodology, a
	// brute-force profile taken there for Iterations rounds, so the (0,0)
	// grid point has coverage 1 and FPR 0 by construction.
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
// initial state. It is called at most once per concurrently evaluated point
// (the reference run counts as one): each station is saved right after
// construction and rolled back to that savepoint between points. A station
// whose savepoint or rollback is refused (memctrl.Station.Savepoint) is
// dropped after its point, so mkStation then runs once per point. Points are
// returned in row-major order: for each delta temperature, each delta
// interval. Cancelling ctx aborts the grid.
func ExploreTradeoffs(ctx context.Context, mkStation func() (*memctrl.Station, error), cfg TradeoffConfig) ([]TradeoffPoint, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	pool := &stationPool{mk: mkStation}

	// Build the scoring reference first: every grid point scores against the
	// same brute-force profile at target conditions.
	ps, err := pool.get()
	if err != nil {
		return nil, err
	}
	reference, err := profileReference(ps.st, cfg)
	if err != nil {
		return nil, err
	}
	pool.put(ps)

	// Grid points are independent — each profiles a station in its
	// just-constructed state and only reads the shared reference — so fan
	// them out on the pool in row-major submission order.
	nI := len(cfg.DeltaIntervals)
	points, err := parallel.Map(ctx, len(cfg.DeltaTemps)*nI, cfg.Workers,
		func(_ context.Context, job int) (TradeoffPoint, error) {
			dT := cfg.DeltaTemps[job/nI]
			dI := cfg.DeltaIntervals[job%nI]
			ps, err := pool.get()
			if err != nil {
				return TradeoffPoint{}, err
			}
			pt, err := measurePoint(ps.st, cfg, reference, ReachConditions{DeltaInterval: dI, DeltaTempC: dT})
			pool.put(ps)
			return pt, err
		})
	if err != nil {
		return nil, err
	}
	summarizeGrid(ctx, points)
	return points, nil
}

// profileReference runs the scoring reference: brute-force profiling at the
// target conditions for cfg.Iterations rounds.
func profileReference(st *memctrl.Station, cfg TradeoffConfig) (*FailureSet, error) {
	if st.Ambient() != cfg.TargetTempC {
		st.SetAmbient(cfg.TargetTempC)
	}
	opt := cfg.Options
	opt.fill()
	opt.Iterations = cfg.Iterations
	opt.OnIteration = nil
	res, err := BruteForce(st, cfg.TargetInterval, opt)
	if err != nil {
		return nil, err
	}
	return res.Failures, nil
}

// summarizeGrid normalizes every point's runtime to the brute-force point
// and records the grid-level telemetry. It runs sequentially over the
// ordered points, so the snapshot is identical at any worker count.
func summarizeGrid(ctx context.Context, points []TradeoffPoint) {
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
}

// unitFractionBounds buckets coverage and false-positive-rate observations.
var unitFractionBounds = []float64{0.5, 0.8, 0.9, 0.95, 0.99, 1}

// stationPool recycles the stations of one tradeoff grid: a free list of
// stations, each paired with the savepoint taken right after mkStation built
// it. A point takes a free station or builds one, and returns it rolled back
// to its savepoint, so every point starts from a state identical to a fresh
// mkStation result. The free list never holds more stations than points ran
// concurrently.
type stationPool struct {
	mk   func() (*memctrl.Station, error)
	mu   sync.Mutex
	free []pooledStation
}

// pooledStation is a station and its construction savepoint; sp is nil when
// the station refused a savepoint and cannot be recycled.
type pooledStation struct {
	st *memctrl.Station
	sp *memctrl.StationSavepoint
}

// get returns a free station, or builds and saves a new one.
func (p *stationPool) get() (pooledStation, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		ps := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return ps, nil
	}
	p.mu.Unlock()
	st, err := p.mk()
	if err != nil {
		return pooledStation{}, fmt.Errorf("core: mkStation: %w", err)
	}
	// A refused savepoint is not an error: the station serves this one point
	// and is dropped.
	sp, _ := st.Savepoint()
	return pooledStation{st: st, sp: sp}, nil
}

// put rolls a used station back to its savepoint and frees it. A station
// without a savepoint, or whose rollback is refused, is dropped instead.
func (p *stationPool) put(ps pooledStation) {
	if ps.sp == nil || ps.st.Rollback(ps.sp) != nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, ps)
	p.mu.Unlock()
}

func measurePoint(st *memctrl.Station, cfg TradeoffConfig, truth *FailureSet, reach ReachConditions) (TradeoffPoint, error) {
	if st.Ambient() != cfg.TargetTempC {
		st.SetAmbient(cfg.TargetTempC)
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
	if !pt.ReachedGoal {
		pt.IterationsToGoal = res.Iterations
		pt.RuntimeSeconds = res.RuntimeSeconds()
	}
	return pt, nil
}
