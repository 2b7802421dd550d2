package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"reaper/internal/core"
	"reaper/internal/dram"
	"reaper/internal/experiments"
	"reaper/internal/memctrl"
	"reaper/internal/parallel"
	"reaper/internal/stats"
	"reaper/internal/telemetry"
)

// unitOut is one unit's output. canon is the canonical JSON the pinned
// digests cover; same is what the traced composition must reproduce (canon
// itself, except where the composed calls stop below the aggregation).
type unitOut struct {
	canon []byte
	same  []byte

	headline *experiments.HeadlineResult
	pop      []experiments.PopulationResult
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// batchWorkload is a workload whose unit is one self-contained experiment.
type batchWorkload struct {
	// run is the unit as users call it.
	run func(ctx context.Context, rc runConfig, seed uint64) (unitOut, error)
	// traced recomputes the unit from public calls into each layer, with
	// spans around the calls and the telemetry registry attached.
	// parent is the unit's root span.
	traced func(ctx context.Context, rc runConfig, tr *tracer, unit, parent int, seed uint64) (unitOut, error)
}

var batches = map[string]batchWorkload{
	"fig9_grid":  {run: fig9Unit, traced: fig9Traced},
	"population": {run: populationUnit, traced: populationTraced},
	"soak":       {run: soakUnit, traced: soakTraced},
}

// runBatch measures a batch workload: setupReps set-ups, each ending in the
// warm-up unit (seed+0), then units seed+0, seed+1, ... until the time is
// up. With rc.trace the timed phase gets half the time and the traced phase
// recomputes the same units.
func runBatch(ctx context.Context, rc runConfig, rep *report, w batchWorkload) error {
	var setups []float64
	var warm unitOut
	for r := 0; r < setupReps; r++ {
		t := time.Now()
		out, err := w.run(ctx, rc, rc.seed)
		if err != nil {
			return fmt.Errorf("warm-up unit: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		rep.Result.Attempted++
		if r == 0 {
			warm = out
			checkGolden(rep, rc, strconv.FormatUint(rc.seed, 10), out.canon)
		} else if !bytes.Equal(out.canon, warm.canon) {
			rep.fail("warm-up unit %d differs from the first: output is not deterministic", r)
		}
	}

	seconds := rc.seconds
	if rc.trace {
		seconds /= 2
	}
	var p phase
	var outs []unitOut
	m := startMeter()
	deadline := m.start.Add(time.Duration(seconds * float64(time.Second)))
	stop := make(chan struct{})
	err := parallel.Do(ctx, 2,
		func(ctx context.Context) error {
			defer close(stop)
			for i := 0; i == 0 || time.Now().Before(deadline); i++ {
				seed := rc.seed + uint64(i)
				t := time.Now()
				out, err := w.run(ctx, rc, seed)
				p.latMS = append(p.latMS, sinceMS(t))
				rep.Result.Attempted++
				outs = append(outs, out)
				if err != nil {
					rep.fail("unit seed %d: %v", seed, err)
					continue
				}
				if i == 0 && !bytes.Equal(out.canon, warm.canon) {
					rep.fail("unit seed %d differs from its warm-up run: output is not deterministic", seed)
				}
				checkGolden(rep, rc, strconv.FormatUint(seed, 10), out.canon)
			}
			return nil
		},
		func(context.Context) error { p.heapP95 = liveHeapP95(stop); return nil },
	)
	if err != nil {
		return err
	}
	m.stop(&p)
	endToEnd(rep, setups, p)
	rep.Accuracy = accuracy(rc.workload, outs)
	if !rc.trace {
		return nil
	}
	return traceBatch(ctx, rc, rep, w, setups, p, outs)
}

// traceBatch recomputes the timed phase's units with tracing on, checks the
// composed outputs equal the untraced ones, and sets the per-layer metrics.
func traceBatch(ctx context.Context, rc runConfig, rep *report, w batchWorkload, setups []float64, untraced phase, outs []unitOut) error {
	tr := newTracer(rc.workload)
	var tp phase
	m := startMeter()
	for i := range outs {
		seed := rc.seed + uint64(i)
		t := time.Now()
		var out unitOut
		var err error
		tr.do(ctx, -1, i, "experiments.unit", func(ctx context.Context, id int) {
			out, err = w.traced(ctx, rc, tr, i, id, seed)
		})
		tp.latMS = append(tp.latMS, sinceMS(t))
		rep.Result.Attempted++
		switch {
		case err != nil:
			rep.fail("traced unit seed %d: %v", seed, err)
		case outs[i].same == nil:
			// The untraced unit failed; already counted.
		case !bytes.Equal(out.same, outs[i].same):
			rep.fail("traced unit seed %d: composed output differs from the untraced unit", seed)
		}
	}
	m.stop(&tp)
	cal, err := calibrate(ctx, rc)
	if err != nil {
		return fmt.Errorf("calibration: %w", err)
	}
	if rc.workload == "soak" {
		// Every set-up ran unit seed+0 checkpointed; compare their median.
		if err := soakCheckpointRows(ctx, rc, rep, stats.Percentile(setups, 50)*1e3, outs[0].canon); err != nil {
			return err
		}
	}
	layerRows(rep, rc, tr, cal, untraced, tp)
	rep.spans = tr.spans
	return nil
}

// checkGolden compares a unit's digest with the pinned one, when pinned.
func checkGolden(rep *report, rc runConfig, key string, canon []byte) {
	if rc.tiny {
		return
	}
	if want, ok := golden()[rc.workload][key]; ok && want != digest(canon) {
		rep.fail("%s unit %s: digest %s, pinned %s", rc.workload, key, digest(canon)[:12], want[:12])
	}
}

// ---------------------------------------------------------------------------
// fig9_grid

func fig9Config(rc runConfig, seed uint64) experiments.Fig9Config {
	cfg := experiments.DefaultFig9Config()
	cfg.Chip = experiments.DefaultChipSpec(seed)
	cfg.Seed = seed
	cfg.Workers = rc.workers
	if rc.tiny {
		cfg.Chip.Bits = 4 << 20
		cfg.DeltaIntervals = []float64{0, 0.25}
		cfg.DeltaTemps = []float64{0, 5}
		cfg.Iterations, cfg.MaxIterations = 4, 8
	}
	return cfg
}

func fig9Unit(ctx context.Context, rc runConfig, seed uint64) (unitOut, error) {
	pts, err := experiments.Fig9Fig10Tradeoff(ctx, fig9Config(rc, seed))
	if err != nil {
		return unitOut{}, err
	}
	return fig9Out(rc, pts)
}

// fig9Traced is Fig9Fig10Tradeoff composed from its public parts: the same
// core.ExploreTradeoffs call with a timed station constructor and the
// telemetry registry attached.
func fig9Traced(ctx context.Context, rc runConfig, tr *tracer, unit, parent int, seed uint64) (unitOut, error) {
	cfg := fig9Config(rc, seed)
	mk := func() (st *memctrl.Station, err error) {
		tr.do(ctx, parent, unit, "dram.materialize", func(context.Context, int) { st, err = cfg.Chip.NewStation() })
		return st, err
	}
	pts, err := core.ExploreTradeoffs(telemetry.WithRegistry(ctx, tr.reg), mk, core.TradeoffConfig{
		TargetInterval: cfg.TargetInterval,
		TargetTempC:    cfg.TargetTempC,
		DeltaIntervals: cfg.DeltaIntervals,
		DeltaTemps:     cfg.DeltaTemps,
		Iterations:     cfg.Iterations,
		CoverageGoal:   cfg.CoverageGoal,
		MaxIterations:  cfg.MaxIterations,
		Workers:        cfg.Workers,
		Options: core.Options{
			FreshRandomPerIteration: true,
			Seed:                    cfg.Seed,
			Telemetry:               tr.reg,
		},
	})
	if err != nil {
		return unitOut{}, err
	}
	return fig9Out(rc, pts)
}

func fig9Out(rc runConfig, pts []core.TradeoffPoint) (unitOut, error) {
	cfg := fig9Config(rc, 0)
	if want := len(cfg.DeltaIntervals) * len(cfg.DeltaTemps); len(pts) != want {
		return unitOut{}, fmt.Errorf("grid has %d points, want %d", len(pts), want)
	}
	for _, p := range pts {
		if !unitRange(p.Coverage) || !unitRange(p.FalsePositiveRate) {
			return unitOut{}, fmt.Errorf("point %+v: coverage or FPR outside [0,1]", p.Reach)
		}
		if p.Reach == (core.ReachConditions{}) && (p.Coverage != 1 || p.FalsePositiveRate != 0) {
			return unitOut{}, fmt.Errorf("brute-force point scores coverage %v FPR %v against itself", p.Coverage, p.FalsePositiveRate)
		}
	}
	canon, err := json.Marshal(pts)
	if err != nil {
		return unitOut{}, err
	}
	out := unitOut{canon: canon, same: canon}
	if h, err := experiments.Headline(pts); err == nil {
		out.headline = &h
	}
	return out, nil
}

func unitRange(v float64) bool { return v >= 0 && v <= 1 }

// ---------------------------------------------------------------------------
// population

func populationConfig(rc runConfig, seed uint64) experiments.PopulationConfig {
	cfg := experiments.PopulationConfig{
		ChipsPerVendor: 16,
		TargetInterval: 1.024,
		Reach:          core.ReachConditions{DeltaInterval: 0.25},
		Iterations:     8,
		ChipBits:       16 << 20,
		WeakScale:      30,
		Seed:           seed,
		Workers:        rc.workers,
		ShardSize:      8,
	}
	if rc.tiny {
		cfg.ChipsPerVendor, cfg.ChipBits, cfg.Iterations, cfg.ShardSize = 2, 1<<20, 2, 2
	}
	return cfg
}

func populationUnit(ctx context.Context, rc runConfig, seed uint64) (unitOut, error) {
	cfg := populationConfig(rc, seed)
	res, err := experiments.PopulationSweep(ctx, cfg)
	if err != nil {
		return unitOut{}, err
	}
	var chips []experiments.ChipResult
	for _, r := range res {
		chips = append(chips, r.Chips...)
	}
	if want := len(dram.Vendors()) * cfg.ChipsPerVendor; len(chips) != want {
		return unitOut{}, fmt.Errorf("sweep reports %d chips, want %d", len(chips), want)
	}
	canon, err := json.Marshal(res)
	if err != nil {
		return unitOut{}, err
	}
	same, err := populationChips(chips)
	if err != nil {
		return unitOut{}, err
	}
	return unitOut{canon: canon, same: same, pop: res}, nil
}

func populationChips(chips []experiments.ChipResult) ([]byte, error) {
	for _, c := range chips {
		if !unitRange(c.Coverage) || !unitRange(c.FPR) {
			return nil, fmt.Errorf("chip %s/%d: coverage or FPR outside [0,1]", c.Vendor, c.Seed)
		}
	}
	return json.Marshal(chips)
}

// populationTraced composes the sweep from its public parts: the fleet in
// consecutive shards, and per chip NewStation, core.Truth and core.Reach on
// a station wrapper that times the station calls. The per-chip results must
// equal the sweep's.
func populationTraced(ctx context.Context, rc runConfig, tr *tracer, unit, parent int, seed uint64) (unitOut, error) {
	cfg := populationConfig(rc, seed)
	vendors := dram.Vendors()
	n := len(vendors) * cfg.ChipsPerVendor
	rctx := telemetry.WithRegistry(ctx, tr.reg)
	var chips []experiments.ChipResult
	for lo := 0; lo < n; lo += cfg.ShardSize {
		hi := min(lo+cfg.ShardSize, n)
		tr.add("experiments.fleet_materialized", int64(hi-lo))
		res, err := parallel.Map(rctx, hi-lo, rc.workers, func(ctx context.Context, k int) (experiments.ChipResult, error) {
			job := lo + k
			vi, c := job/cfg.ChipsPerVendor, job%cfg.ChipsPerVendor
			spec := experiments.ChipSpec{
				Bits:      cfg.ChipBits,
				WeakScale: cfg.WeakScale,
				Vendor:    vendors[vi],
				Seed:      cfg.Seed + uint64(vi)*1000 + uint64(c),
			}
			return tracedChip(ctx, tr, parent, unit, cfg, spec)
		})
		if err != nil {
			return unitOut{}, err
		}
		chips = append(chips, res...)
		tr.add("experiments.fleet_evictions", int64(hi-lo))
	}
	same, err := populationChips(chips)
	return unitOut{same: same}, err
}

func tracedChip(ctx context.Context, tr *tracer, parent, unit int, cfg experiments.PopulationConfig, spec experiments.ChipSpec) (experiments.ChipResult, error) {
	var st *memctrl.Station
	var err error
	tr.do(ctx, parent, unit, "dram.materialize", func(context.Context, int) { st, err = spec.NewStation() })
	if err != nil {
		return experiments.ChipResult{}, err
	}
	var truth *core.FailureSet
	tr.do(ctx, parent, unit, "core.truth", func(context.Context, int) { truth = core.Truth(st, cfg.TargetInterval, 45) })
	var prof *core.Result
	tr.do(ctx, parent, unit, "core.reach", func(ctx context.Context, id int) {
		ts := &timedStation{Station: st, tr: tr, ctx: ctx, parent: id, unit: unit}
		prof, err = core.Reach(ts, cfg.TargetInterval, cfg.Reach, core.Options{
			Iterations:              cfg.Iterations,
			FreshRandomPerIteration: true,
			Seed:                    spec.Seed,
			Telemetry:               tr.reg,
		})
		tr.add("memctrl.call", ts.calls)
	})
	if err != nil {
		return experiments.ChipResult{}, err
	}
	return experiments.ChipResult{
		Vendor:   spec.Vendor.Name,
		Seed:     spec.Seed,
		BER1024:  spec.EffectiveBER(truth.Len()),
		Coverage: core.Coverage(prof.Failures, truth),
		FPR:      core.FalsePositiveRate(prof.Failures, truth),
	}, nil
}

// timedStation is the core.TestStation the traced population profiles
// through: the device sweeps (WritePattern, ReadCompare) become memctrl
// spans, the refresh and wait steps are counted, and everything else —
// including the IndexStats/IncrStats counters core reads — is the embedded
// station's. One chip's station is used by one goroutine at a time.
type timedStation struct {
	*memctrl.Station
	tr     *tracer
	ctx    context.Context
	parent int
	unit   int
	calls  int64
}

func (s *timedStation) WritePattern(p dram.RowData) {
	s.tr.do(s.ctx, s.parent, s.unit, "memctrl.write_pattern", func(context.Context, int) { s.Station.WritePattern(p) })
}

func (s *timedStation) ReadCompare() (fails []uint64) {
	s.tr.do(s.ctx, s.parent, s.unit, "memctrl.read_compare", func(context.Context, int) { fails = s.Station.ReadCompare() })
	return fails
}

func (s *timedStation) DisableRefresh() { s.calls++; s.Station.DisableRefresh() }

func (s *timedStation) EnableRefresh() { s.calls++; s.Station.EnableRefresh() }

func (s *timedStation) Wait(seconds float64) { s.calls++; s.Station.Wait(seconds) }

var _ core.TestStation = (*timedStation)(nil)

// ---------------------------------------------------------------------------
// soak

// soakEvery is the checkpoint segment length in scrub windows.
const soakEvery = 24

func soakConfig(rc runConfig, seed uint64, dir string) experiments.SoakConfig {
	cfg := experiments.DefaultSoakConfig(seed)
	cfg.Workers = rc.workers
	cfg.ShardSize = 2
	cfg.Checkpoint = &experiments.CheckpointOptions{Dir: dir, EveryWindows: soakEvery}
	if rc.tiny {
		cfg.Chips, cfg.Hours, cfg.Chip.Bits = 2, 48, 1<<20
	}
	return cfg
}

// soakDir is a fresh checkpoint directory for one campaign.
func soakDir(rc runConfig, seed uint64, tag string) (string, error) {
	dir := filepath.Join(rc.workdir, fmt.Sprintf("soak-%s-%d", tag, seed))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, nil
}

func soakUnit(ctx context.Context, rc runConfig, seed uint64) (unitOut, error) {
	dir, err := soakDir(rc, seed, "run")
	if err != nil {
		return unitOut{}, err
	}
	defer os.RemoveAll(dir)
	rep, err := experiments.Soak(ctx, soakConfig(rc, seed, dir))
	if err != nil {
		return unitOut{}, err
	}
	return soakOut(rc, rep)
}

// soakTraced runs the same campaign with SoakConfig.Telemetry set. The
// campaign's materializations, delta restores, encodes and barrier saves
// happen inside experiments.Soak, so their counts are derived from the
// campaign layout rather than spans. The checkpoint directory is kept (and
// replaced by the next unit's) so the checkpoint rows can copy its file set.
func soakTraced(ctx context.Context, rc runConfig, tr *tracer, unit, parent int, seed uint64) (unitOut, error) {
	dir, err := soakDir(rc, 0, "traced")
	if err != nil {
		return unitOut{}, err
	}
	cfg := soakConfig(rc, seed, dir)
	cfg.Telemetry = tr.reg
	var rep *experiments.SoakReport
	tr.do(ctx, parent, unit, "experiments.soak", func(ctx context.Context, _ int) {
		rep, err = experiments.Soak(ctx, cfg)
	})
	if err != nil {
		return unitOut{}, err
	}
	rep.Telemetry, rep.TraceEvents = nil, nil

	chips := int64(cfg.Chips)
	segments := int64(math.Ceil(cfg.Hours / cfg.WindowHours / soakEvery))
	// Segment 0 constructs every chip; each later segment, and the final
	// report, rebuild every evicted chip from its seed plus delta.
	tr.add("dram.materialize", chips*(segments+1))
	tr.add("dram.restore_delta", chips*segments)
	tr.add("dram.encode_delta", chips*segments)
	tr.add("checkpoint.save", segments)
	tr.add("experiments.fleet_materialized", chips*(segments+1))
	tr.add("experiments.fleet_evictions", chips*segments)
	for _, c := range rep.ChipReports {
		tr.add("experiments.chip_window", int64(c.Windows))
	}
	return soakOut(rc, rep)
}

func soakOut(rc runConfig, rep *experiments.SoakReport) (unitOut, error) {
	if want := soakConfig(rc, 0, "").Chips; len(rep.ChipReports) != want || rep.PartialCoverage {
		return unitOut{}, fmt.Errorf("campaign reports %d of %d chips", len(rep.ChipReports), want)
	}
	for _, c := range rep.ChipReports {
		if c.Windows == 0 || !unitRange(c.ExtendedFraction) {
			return unitOut{}, fmt.Errorf("chip %d: %d windows, extended fraction %v", c.Chip, c.Windows, c.ExtendedFraction)
		}
	}
	canon, err := json.Marshal(rep)
	return unitOut{canon: canon, same: canon}, err
}

// ---------------------------------------------------------------------------
// accuracy (not gated)

// accuracy renders the paper-accuracy block beside the paper's numbers.
func accuracy(workload string, outs []unitOut) []string {
	const note = "accuracy (not gated; the model is checked only against the DESIGN.md section 4 shape targets):"
	switch workload {
	case "fig9_grid":
		lines := []string{note}
		var cov, fpr, sp, asp, afpr []float64
		for _, o := range outs {
			if h := o.headline; h != nil {
				cov, fpr, sp = append(cov, h.Coverage), append(fpr, h.FalsePositiveRate), append(sp, h.Speedup)
				asp, afpr = append(asp, h.AggressiveSpeedup), append(afpr, h.AggressiveFPR)
				lines = append(lines, fmt.Sprintf("  grid: +250ms coverage %.4f FPR %.3f speedup %.2fx; aggressive %.2fx at FPR %.3f",
					h.Coverage, h.FalsePositiveRate, h.Speedup, h.AggressiveSpeedup, h.AggressiveFPR))
			}
		}
		return append(lines, fmt.Sprintf("  mean over %d grids: coverage %.4f (paper 99%%), FPR %.3f (paper <50%%), speedup %.2fx (paper 2.5x), aggressive %.2fx at FPR %.3f (paper 3.5x at >75%%)",
			len(cov), stats.Mean(cov), stats.Mean(fpr), stats.Mean(sp), stats.Mean(asp), stats.Mean(afpr)))
	case "population":
		var cov, fpr []float64
		for _, o := range outs {
			for _, r := range o.pop {
				cov, fpr = append(cov, r.CoverageMean), append(fpr, r.FPRMean)
			}
		}
		return []string{note, fmt.Sprintf("  per-vendor means over %d sweeps at +250ms: coverage %.4f (paper 99%%), FPR %.3f (paper <50%%)",
			len(outs), stats.Mean(cov), stats.Mean(fpr))}
	}
	return nil
}
