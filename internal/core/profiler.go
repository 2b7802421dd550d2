package core

import (
	"fmt"
	"strings"

	"reaper/internal/dram"
	"reaper/internal/memctrl"
	"reaper/internal/patterns"
	"reaper/internal/telemetry"
)

// TestStation is the hardware interface profiling needs: the SoftMC-style
// write-pattern / refresh-control / wait / read-compare operations plus
// time accounting and temperature control. memctrl.Station implements it
// for one chip; module.Module implements it for a multi-chip module.
type TestStation interface {
	WritePattern(p dram.RowData)
	DisableRefresh()
	EnableRefresh()
	Wait(seconds float64)
	ReadCompare() []uint64
	Clock() float64
	Stats() memctrl.Stats
	Ambient() float64
	SetAmbient(tempC float64) float64
}

// memctrl.Station must satisfy TestStation.
var _ TestStation = (*memctrl.Station)(nil)

// Options configures a profiling run (both brute-force and reach).
type Options struct {
	// Patterns are the data patterns tested each iteration. Nil selects
	// the standard six patterns and their inverses (Section 3.2).
	Patterns []patterns.Pattern

	// Iterations is the number of testing rounds (Algorithm 1's
	// num_iterations). The paper's tradeoff analysis uses 16. Defaults to
	// 16 when zero.
	Iterations int

	// FreshRandomPerIteration re-seeds the random pattern(s) every
	// iteration so each round explores new neighbourhood data, as the
	// paper's methodology does. Only patterns created by
	// patterns.Random are affected.
	FreshRandomPerIteration bool

	// Seed drives the fresh random patterns.
	Seed uint64

	// OnIteration, if non-nil, is invoked after each iteration with the
	// cumulative result so far; returning false stops profiling early.
	// Used by the tradeoff explorer to stop at a coverage goal.
	OnIteration func(r *Result) bool

	// Telemetry, when non-nil, receives the core_profiling_* metrics (round
	// and pass counters, new-failures-per-pass distribution, simulated
	// seconds). All writes are commutative, so sharing one registry across
	// concurrent runs is safe and deterministic.
	Telemetry *telemetry.Registry

	// Tracer, when non-nil, receives round-start / iteration / round-end
	// trace events stamped with the station's simulated clock. A tracer is
	// single-owner: never share one across concurrent profiling runs (the
	// tradeoff explorer strips it for exactly that reason).
	Tracer *telemetry.Tracer
}

func (o *Options) fill() {
	if o.Iterations == 0 {
		o.Iterations = 16
	}
	if len(o.Patterns) == 0 {
		o.Patterns = patterns.StandardWithInverses(o.Seed)
	}
}

// IterationRecord summarizes one pass of one data pattern during profiling.
type IterationRecord struct {
	Iteration   int
	PatternName string
	// Failures is the number of cells that failed this pass.
	Failures int
	// NewFailures is how many of them had not been seen before in this run.
	NewFailures int
	// ClockSeconds is the simulated time at the end of the pass.
	ClockSeconds float64
}

// Result is the outcome of a profiling run.
type Result struct {
	// Failures is the cumulative set of failing cells discovered.
	Failures *FailureSet
	// Records holds one entry per (iteration, pattern) pass.
	Records []IterationRecord
	// Stats is the simulated-time accounting for the run (Equation 9's
	// terms come out of it).
	Stats memctrl.Stats
	// ProfilingInterval and ProfilingTempC are the conditions profiling
	// actually ran at (for reach profiling these exceed the target).
	ProfilingInterval float64
	ProfilingTempC    float64
	// Iterations actually executed (may be less than requested when
	// OnIteration stopped the run).
	Iterations int
}

// RuntimeSeconds returns the total simulated time the run consumed.
func (r *Result) RuntimeSeconds() float64 { return r.Stats.Total() }

// BruteForce runs the paper's Algorithm 1 on the station: for each
// iteration and each data pattern, write the pattern everywhere, disable
// refresh, wait for tREFI, re-enable refresh, and collect the failures.
// tREFI is in seconds.
func BruteForce(st TestStation, tREFI float64, opt Options) (*Result, error) {
	if st == nil {
		return nil, fmt.Errorf("core: nil station")
	}
	if tREFI <= 0 {
		return nil, fmt.Errorf("core: non-positive profiling interval %v", tREFI)
	}
	opt.fill()

	res := &Result{
		Failures:          NewFailureSet(),
		ProfilingInterval: tREFI,
		ProfilingTempC:    st.Ambient(),
	}
	before := st.Stats()
	// Stations backed by the sparse active-window index (both station kinds
	// are) expose cumulative disposition counters; record this round's delta
	// so the dram_index_* series track how much per-cell work the index
	// avoided. Deltas are sums of per-chip counters, hence worker-count
	// invariant.
	ix, hasIx := st.(interface{ IndexStats() dram.IndexStats })
	var ixBefore dram.IndexStats
	if hasIx {
		ixBefore = ix.IndexStats()
	}
	// Likewise for the incremental round cache counters, which are
	// deterministic and worker-count invariant by construction.
	ic, hasIc := st.(interface{ IncrStats() dram.IncrStats })
	var icBefore dram.IncrStats
	if hasIc {
		icBefore = ic.IncrStats()
	}

	reg := opt.Telemetry
	reg.Counter("core_profiling_rounds_total").Inc()
	newPerPass := reg.Histogram("core_profiling_new_failures_per_pass", newFailureBounds)
	opt.Tracer.Emit(st.Clock(), "round-start",
		fmt.Sprintf("interval=%gs temp=%gC iterations=%d patterns=%d",
			tREFI, st.Ambient(), opt.Iterations, len(opt.Patterns)))

	for it := 1; it <= opt.Iterations; it++ {
		ps := opt.Patterns
		if opt.FreshRandomPerIteration {
			ps = refreshRandoms(ps, opt.Seed, it)
		}
		for _, p := range ps {
			st.WritePattern(p)
			st.DisableRefresh()
			st.Wait(tREFI)
			st.EnableRefresh()
			fails := st.ReadCompare()
			added := res.Failures.AddAll(fails)
			reg.Counter("core_profiling_passes_total", telemetry.L("pattern", patternLabel(p.Name()))).Inc()
			newPerPass.Observe(float64(added))
			res.Records = append(res.Records, IterationRecord{
				Iteration:    it,
				PatternName:  p.Name(),
				Failures:     len(fails),
				NewFailures:  added,
				ClockSeconds: st.Clock(),
			})
		}
		res.Iterations = it
		opt.Tracer.Emit(st.Clock(), "iteration",
			fmt.Sprintf("iter=%d unique_failures=%d", it, res.Failures.Len()))
		if opt.OnIteration != nil && !opt.OnIteration(res) {
			break
		}
	}
	res.Stats = diffStats(st.Stats(), before)
	if hasIx {
		d := ix.IndexStats().Sub(ixBefore)
		reg.Counter("dram_index_cells_skipped_total").Add(int64(d.Skipped))
		reg.Counter("dram_index_cells_flipped_total").Add(int64(d.Flipped))
		reg.Counter("dram_index_cells_sampled_total").Add(int64(d.Sampled))
		reg.Counter("dram_index_cells_slowpath_total").Add(int64(d.Slowpath))
		// A device has one sampling stream, so no sweep is bank-sharded and
		// these two series stay 0. They are still registered because the
		// service result documents that list them are pinned by digest.
		reg.Counter("dram_bank_sweeps_total")
		reg.Counter("dram_bank_shards_total")
	}
	if hasIc {
		d := ic.IncrStats().Sub(icBefore)
		reg.Counter("dram_incr_sweeps_fast_total").Add(int64(d.FastSweeps))
		reg.Counter("dram_incr_sweeps_full_total").Add(int64(d.FullSweeps))
		reg.Counter("dram_incr_cells_reused_total").Add(int64(d.ReusedCells))
		reg.Counter("dram_incr_cells_dirty_total").Add(int64(d.DirtyCells))
	}
	reg.Histogram("core_profiling_round_seconds", roundSecondsBounds).Observe(res.RuntimeSeconds())
	opt.Tracer.Emit(st.Clock(), "round-end",
		fmt.Sprintf("iterations=%d unique_failures=%d sim_seconds=%.3f",
			res.Iterations, res.Failures.Len(), res.RuntimeSeconds()))
	return res, nil
}

// Histogram bounds for the profiling metrics: new failures discovered per
// pass (geometric, zero-heavy once a profile converges) and simulated
// seconds per round.
var (
	newFailureBounds   = []float64{0, 1, 4, 16, 64, 256, 1024}
	roundSecondsBounds = []float64{1, 10, 60, 600, 3600, 36000}
)

// patternLabel collapses a parameterized pattern name — random(0x…), or its
// inverse — to its family, so the per-pattern pass counter keeps a bounded
// label set instead of one series per random seed.
func patternLabel(name string) string {
	if i := strings.IndexByte(name, '('); i >= 0 {
		return name[:i]
	}
	return name
}

// refreshRandoms replaces every random pattern (and inverted random) with a
// freshly seeded one, leaving the fixed patterns intact.
func refreshRandoms(ps []patterns.Pattern, seed uint64, iteration int) []patterns.Pattern {
	out := make([]patterns.Pattern, len(ps))
	for i, p := range ps {
		name := p.Name()
		fresh := seed ^ uint64(iteration)*0x9e3779b97f4a7c15 ^ uint64(i)
		switch {
		case len(name) >= 6 && name[:6] == "random":
			out[i] = patterns.Random(fresh)
		case len(name) >= 7 && name[:7] == "~random":
			out[i] = patterns.Invert(patterns.Random(fresh))
		default:
			out[i] = p
		}
	}
	return out
}

func diffStats(after, before memctrl.Stats) memctrl.Stats {
	return memctrl.Stats{
		WriteSeconds: after.WriteSeconds - before.WriteSeconds,
		ReadSeconds:  after.ReadSeconds - before.ReadSeconds,
		WaitSeconds:  after.WaitSeconds - before.WaitSeconds,
		IdleSeconds:  after.IdleSeconds - before.IdleSeconds,
		WritePasses:  after.WritePasses - before.WritePasses,
		ReadPasses:   after.ReadPasses - before.ReadPasses,
		BytesWritten: after.BytesWritten - before.BytesWritten,
		BytesRead:    after.BytesRead - before.BytesRead,
	}
}

// ReachConditions specify how far profiling conditions exceed the target
// conditions (the paper's Δ refresh interval and Δ temperature axes of
// Figures 9 and 10).
type ReachConditions struct {
	// DeltaInterval is added to the target refresh interval, in seconds.
	DeltaInterval float64 `json:"delta_interval_s"`
	// DeltaTempC is added to the target ambient temperature, in °C.
	DeltaTempC float64 `json:"delta_temp_c"`
}

// Reach runs reach profiling: it raises the station's ambient temperature by
// reach.DeltaTempC, profiles at target interval + reach.DeltaInterval using
// Algorithm 1, and restores the original ambient afterwards. With zero reach
// deltas it degenerates to brute-force profiling at the target conditions.
func Reach(st TestStation, targetInterval float64, reach ReachConditions, opt Options) (*Result, error) {
	if reach.DeltaInterval < 0 || reach.DeltaTempC < 0 {
		return nil, fmt.Errorf("core: reach deltas must be non-negative, got %+v", reach)
	}
	orig := st.Ambient()
	if reach.DeltaTempC > 0 {
		st.SetAmbient(orig + reach.DeltaTempC)
	}
	res, err := BruteForce(st, targetInterval+reach.DeltaInterval, opt)
	if reach.DeltaTempC > 0 {
		st.SetAmbient(orig)
	}
	return res, err
}

// Truth queries the station's device oracle for the ground-truth failing set
// at the given target conditions, evaluated at the station's current
// simulated time. This is only possible on the simulator — it is how
// profiler quality is scored.
func Truth(st *memctrl.Station, targetInterval, targetTempC float64) *FailureSet {
	bits := st.Device().TrueFailingSet(targetInterval, targetTempC, st.Clock(), dram.OracleThreshold)
	return FromBits(bits)
}
