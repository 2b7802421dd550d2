package experiments

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"reaper/internal/core"
	"reaper/internal/dram"
	"reaper/internal/parallel"
	"reaper/internal/patterns"
	"reaper/internal/stats"
)

// ---------------------------------------------------------------------------
// Figure 2: retention failure rates vs refresh interval, with cells split
// into unique / repeat / non-repeat against the lower-interval population.
// ---------------------------------------------------------------------------

// Fig2Row is one (vendor, interval) sample.
type Fig2Row struct {
	Vendor    string
	IntervalS float64
	BER       float64 // normalized to an unamplified device
	Unique    int     // failing here, never at lower intervals
	Repeat    int     // failing here and at lower intervals
	NonRepeat int     // failing at lower intervals but not here
}

// Fig2Config drives the sweep.
type Fig2Config struct {
	Intervals  []float64
	Iterations int
	Chip       func(vendor dram.VendorParams, seed uint64) ChipSpec
	Seed       uint64

	// Workers bounds the pool running vendors concurrently; <= 0 means one
	// worker per CPU. The per-vendor interval chain stays sequential (each
	// interval's unique/repeat split depends on the lower intervals).
	Workers int
}

// DefaultFig2Config mirrors the paper's interval range.
func DefaultFig2Config() Fig2Config {
	return Fig2Config{
		Intervals:  []float64{0.256, 0.512, 1.024, 2.048, 4.096},
		Iterations: 4,
		Seed:       2,
	}
}

// Fig2RetentionDistribution runs the Figure 2 experiment across the three
// vendors. Cancelling ctx aborts the sweep.
func Fig2RetentionDistribution(ctx context.Context, cfg Fig2Config) ([]Fig2Row, error) {
	if cfg.Chip == nil {
		cfg.Chip = func(v dram.VendorParams, seed uint64) ChipSpec {
			c := DefaultChipSpec(seed)
			c.Vendor = v
			return c
		}
	}
	vendors := dram.Vendors()
	perVendor, err := parallel.Map(ctx, len(vendors), cfg.Workers,
		func(_ context.Context, vi int) ([]Fig2Row, error) {
			vendor := vendors[vi]
			spec := cfg.Chip(vendor, cfg.Seed+uint64(vi))
			st, err := spec.NewStation()
			if err != nil {
				return nil, err
			}
			var rows []Fig2Row
			lower := core.NewFailureSet()
			for _, interval := range cfg.Intervals {
				res, err := core.BruteForce(st, interval, core.Options{
					Iterations:              cfg.Iterations,
					FreshRandomPerIteration: true,
					Seed:                    cfg.Seed,
				})
				if err != nil {
					return nil, err
				}
				f := res.Failures
				repeat := f.Intersect(lower).Len()
				rows = append(rows, Fig2Row{
					Vendor:    vendor.Name,
					IntervalS: interval,
					BER:       spec.EffectiveBER(f.Len()),
					Unique:    f.Len() - repeat,
					Repeat:    repeat,
					NonRepeat: lower.Diff(f).Len(),
				})
				lower = lower.Union(f)
			}
			return rows, nil
		})
	if err != nil {
		return nil, err
	}
	var rows []Fig2Row
	for _, vr := range perVendor {
		rows = append(rows, vr...)
	}
	return rows, nil
}

// Fig2Table renders the rows.
func Fig2Table(rows []Fig2Row) *Table {
	t := &Table{
		Title:  "Figure 2: retention failure rates vs refresh interval",
		Header: []string{"vendor", "tREFI", "BER", "unique", "repeat", "non-repeat", "repeat frac"},
		Caption: "paper: BER grows polynomially with interval; repeat cells dominate " +
			"(Observation 1: cells failing at an interval keep failing at higher ones)",
	}
	for _, r := range rows {
		total := r.Unique + r.Repeat
		frac := 0.0
		if total > 0 {
			frac = float64(r.Repeat) / float64(total)
		}
		t.AddRow(r.Vendor, Ms(r.IntervalS), fmt.Sprintf("%.3g", r.BER),
			fmt.Sprint(r.Unique), fmt.Sprint(r.Repeat), fmt.Sprint(r.NonRepeat), Pct(frac))
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 3: failures discovered over days of continuous brute-force
// profiling — VRT keeps the set growing at a steady rate.
// ---------------------------------------------------------------------------

// Fig3Point is one profiling iteration's accounting.
type Fig3Point struct {
	Iteration  int
	SimHours   float64
	Cumulative int
	NewCells   int
	Repeats    int
}

// Fig3Result carries the series plus the steady-state fit.
type Fig3Result struct {
	Points []Fig3Point
	// SteadyStateCellsPerHour is the new-failure accumulation rate over
	// the second half of the run.
	SteadyStateCellsPerHour float64
	// PerIterationMean is the mean failures (new+repeat) per iteration in
	// the second half — the paper observes this stays nearly constant.
	PerIterationMean float64
}

// Fig3Config drives the run.
type Fig3Config struct {
	Chip       ChipSpec
	IntervalS  float64
	Iterations int
	// TotalSimHours spreads the iterations across this much simulated
	// time (the paper's six days), with idle refresh-on gaps between
	// iterations.
	TotalSimHours float64
}

// DefaultFig3Config is a bench-scale version of the paper's 6-day run.
func DefaultFig3Config() Fig3Config {
	return Fig3Config{
		Chip:          DefaultChipSpec(3),
		IntervalS:     2.048,
		Iterations:    200,
		TotalSimHours: 48,
	}
}

// Fig3VRTAccumulation runs the experiment.
func Fig3VRTAccumulation(cfg Fig3Config) (*Fig3Result, error) {
	st, err := cfg.Chip.NewStation()
	if err != nil {
		return nil, err
	}
	if cfg.Iterations < 4 {
		return nil, fmt.Errorf("experiments: Fig3 needs >= 4 iterations")
	}
	gap := cfg.TotalSimHours * 3600 / float64(cfg.Iterations)
	seen := core.NewFailureSet()
	res := &Fig3Result{}
	for it := 1; it <= cfg.Iterations; it++ {
		r, err := core.BruteForce(st, cfg.IntervalS, core.Options{
			Iterations:              1,
			FreshRandomPerIteration: true,
			Seed:                    uint64(it),
		})
		if err != nil {
			return nil, err
		}
		newCells := 0
		for _, b := range r.Failures.Sorted() {
			if seen.Add(b) {
				newCells++
			}
		}
		res.Points = append(res.Points, Fig3Point{
			Iteration:  it,
			SimHours:   st.Clock() / 3600,
			Cumulative: seen.Len(),
			NewCells:   newCells,
			Repeats:    r.Failures.Len() - newCells,
		})
		// Idle (refresh enabled) until the next iteration slot.
		idle := gap - r.RuntimeSeconds()
		if idle > 0 {
			st.Wait(idle)
		}
	}
	// Steady state over the second half.
	half := res.Points[len(res.Points)/2:]
	newSum := 0
	perIter := 0.0
	for _, p := range half {
		newSum += p.NewCells
		perIter += float64(p.NewCells + p.Repeats)
	}
	hours := half[len(half)-1].SimHours - half[0].SimHours
	if hours > 0 {
		res.SteadyStateCellsPerHour = float64(newSum) / hours
	}
	res.PerIterationMean = perIter / float64(len(half))
	return res, nil
}

// Fig3Table renders about a dozen evenly spaced iterations of the series.
func Fig3Table(res *Fig3Result) *Table {
	t := &Table{
		Title:  "Figure 3: failure discovery over continuous brute-force profiling @2048ms",
		Header: []string{"iteration", "sim hours", "cumulative", "new", "repeat"},
		Caption: fmt.Sprintf("steady-state accumulation %.2f cells/hour; per-iteration total ~%.0f "+
			"(paper: accumulation never stops; totals stay constant)",
			res.SteadyStateCellsPerHour, res.PerIterationMean),
	}
	stride := len(res.Points)/12 + 1
	for i, p := range res.Points {
		if i%stride == 0 || i == len(res.Points)-1 {
			t.AddRow(fmt.Sprint(p.Iteration), fmt.Sprintf("%.1f", p.SimHours),
				fmt.Sprint(p.Cumulative), fmt.Sprint(p.NewCells), fmt.Sprint(p.Repeats))
		}
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 4: steady-state accumulation rate vs refresh interval per vendor,
// fit as y = a * x^b.
// ---------------------------------------------------------------------------

// Fig4Row is one vendor's sweep plus power-law fit.
type Fig4Row struct {
	Vendor    string
	Intervals []float64
	// RatesPerHour are measured on the scale-model chip, normalized back
	// to an unamplified device of the same capacity.
	RatesPerHour []float64
	Fit          stats.PowerLawFit
	// AnalyticAnchor is the calibrated model rate at each interval for
	// comparison.
	AnalyticAnchor []float64
}

// Fig4Config drives the sweep.
type Fig4Config struct {
	Intervals  []float64
	Iterations int
	SimHours   float64
	Seed       uint64
	ChipBits   int64
	WeakScale  float64

	// Workers bounds the pool running (vendor, interval) cells concurrently;
	// <= 0 means one worker per CPU. Each cell builds its own chip.
	Workers int
}

// DefaultFig4Config is a bench-scale sweep.
func DefaultFig4Config() Fig4Config {
	return Fig4Config{
		Intervals:  []float64{1.024, 2.048, 4.096},
		Iterations: 60,
		SimHours:   24,
		Seed:       4,
		ChipBits:   64 << 20,
		WeakScale:  50,
	}
}

// Fig4AccumulationRates measures and fits the per-vendor rates. Every
// (vendor, interval) cell simulates an independent chip, so the whole grid
// fans out on the pool.
func Fig4AccumulationRates(ctx context.Context, cfg Fig4Config) ([]Fig4Row, error) {
	vendors := dram.Vendors()
	nI := len(cfg.Intervals)
	rates, err := parallel.Map(ctx, len(vendors)*nI, cfg.Workers,
		func(_ context.Context, job int) (float64, error) {
			vi, interval := job/nI, cfg.Intervals[job%nI]
			spec := ChipSpec{
				Bits:      cfg.ChipBits,
				WeakScale: cfg.WeakScale,
				Vendor:    vendors[vi],
				Seed:      cfg.Seed + uint64(vi)*97 + uint64(interval*1000),
			}
			r, err := Fig3VRTAccumulation(Fig3Config{
				Chip:          spec,
				IntervalS:     interval,
				Iterations:    cfg.Iterations,
				TotalSimHours: cfg.SimHours,
			})
			if err != nil {
				return 0, err
			}
			return r.SteadyStateCellsPerHour / cfg.WeakScale, nil
		})
	if err != nil {
		return nil, err
	}
	var out []Fig4Row
	for vi, vendor := range vendors {
		row := Fig4Row{Vendor: vendor.Name, Intervals: cfg.Intervals}
		row.RatesPerHour = rates[vi*nI : (vi+1)*nI]
		for _, interval := range cfg.Intervals {
			row.AnalyticAnchor = append(row.AnalyticAnchor,
				vendor.VRTRate(interval, dram.RefTempC, cfg.ChipBits/8))
		}
		if fit, err := stats.FitPowerLaw(row.Intervals, row.RatesPerHour); err == nil {
			row.Fit = fit
		}
		out = append(out, row)
	}
	return out, nil
}

// Fig4Table renders the rows.
func Fig4Table(rows []Fig4Row) *Table {
	t := &Table{
		Title:   "Figure 4: steady-state failure accumulation rate vs refresh interval (y = a*x^b)",
		Header:  []string{"vendor", "tREFI", "measured cells/hr", "model cells/hr", "fit a", "fit b", "R2"},
		Caption: "paper: polynomial growth of the accumulation rate with refresh interval",
	}
	for _, r := range rows {
		for i := range r.Intervals {
			a, b, r2 := "", "", ""
			if i == 0 {
				a, b, r2 = F(r.Fit.A), F(r.Fit.B), F(r.Fit.R2)
			}
			t.AddRow(r.Vendor, Ms(r.Intervals[i]), F(r.RatesPerHour[i]),
				F(r.AnalyticAnchor[i]), a, b, r2)
		}
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 5: per-pattern coverage of the unique failure population.
// ---------------------------------------------------------------------------

// Fig5Row reports one pattern's share of all discovered failures.
type Fig5Row struct {
	Vendor   string
	Pattern  string
	Found    int
	Total    int
	Coverage float64
}

// Fig5Config drives the run.
type Fig5Config struct {
	IntervalS  float64
	Iterations int
	Seed       uint64
	Vendors    []dram.VendorParams
	ChipBits   int64
	WeakScale  float64

	// Workers bounds the pool running vendors concurrently; <= 0 means one
	// worker per CPU.
	Workers int
}

// DefaultFig5Config is a bench-scale version of the paper's 800-iteration,
// six-day pattern study.
func DefaultFig5Config() Fig5Config {
	return Fig5Config{
		IntervalS:  2.048,
		Iterations: 64,
		Seed:       5,
		Vendors:    dram.Vendors(),
		ChipBits:   64 << 20,
		WeakScale:  20,
	}
}

// Fig5PatternCoverage measures what fraction of all discovered failing
// cells each data pattern finds on its own.
func Fig5PatternCoverage(ctx context.Context, cfg Fig5Config) ([]Fig5Row, error) {
	perVendor, err := parallel.Map(ctx, len(cfg.Vendors), cfg.Workers,
		func(_ context.Context, vi int) ([]Fig5Row, error) {
			return fig5Vendor(cfg, vi)
		})
	if err != nil {
		return nil, err
	}
	var out []Fig5Row
	for _, vr := range perVendor {
		out = append(out, vr...)
	}
	return out, nil
}

// fig5Vendor runs the Figure 5 pattern study for one vendor's chip.
func fig5Vendor(cfg Fig5Config, vi int) ([]Fig5Row, error) {
	var out []Fig5Row
	{
		vendor := cfg.Vendors[vi]
		spec := ChipSpec{Bits: cfg.ChipBits, WeakScale: cfg.WeakScale,
			Vendor: vendor, Seed: cfg.Seed + uint64(vi)*31}
		st, err := spec.NewStation()
		if err != nil {
			return nil, err
		}
		// Pattern families: solid/checker/colstripe/rowstripe/walk/random,
		// each tested with its inverse, tracked per family as the paper
		// plots them.
		families := [][]patterns.Pattern{
			{patterns.Solid0(), patterns.Solid1()},
			{patterns.Checkerboard(), patterns.Invert(patterns.Checkerboard())},
			{patterns.ColStripe(), patterns.Invert(patterns.ColStripe())},
			{patterns.RowStripe(), patterns.Invert(patterns.RowStripe())},
			{patterns.WalkingOnes(), patterns.Invert(patterns.WalkingOnes())},
			nil, // random: freshly seeded per iteration
		}
		names := []string{"solid", "checker", "colstripe", "rowstripe", "walk", "random"}
		perFamily := make([]*core.FailureSet, len(families))
		for i := range perFamily {
			perFamily[i] = core.NewFailureSet()
		}
		total := core.NewFailureSet()
		for it := 0; it < cfg.Iterations; it++ {
			for fi, fam := range families {
				ps := fam
				if ps == nil {
					s := cfg.Seed ^ uint64(it)*0x9e3779b97f4a7c15
					ps = []patterns.Pattern{patterns.Random(s), patterns.Invert(patterns.Random(s))}
				}
				for _, p := range ps {
					st.WritePattern(p)
					st.DisableRefresh()
					st.Wait(cfg.IntervalS)
					st.EnableRefresh()
					fails := st.ReadCompare()
					perFamily[fi].AddAll(fails)
					total.AddAll(fails)
				}
			}
		}
		for fi := range families {
			cov := 0.0
			if total.Len() > 0 {
				cov = float64(perFamily[fi].Intersect(total).Len()) / float64(total.Len())
			}
			out = append(out, Fig5Row{
				Vendor:   vendor.Name,
				Pattern:  names[fi],
				Found:    perFamily[fi].Len(),
				Total:    total.Len(),
				Coverage: cov,
			})
		}
	}
	return out, nil
}

// Fig5Table renders the rows.
func Fig5Table(rows []Fig5Row) *Table {
	t := &Table{
		Title:   "Figure 5: unique-failure coverage by data pattern",
		Header:  []string{"vendor", "pattern", "found", "of total", "coverage"},
		Caption: "paper (Observation 3): on LPDDR4 the random pattern comes closest to full coverage but no single pattern finds everything",
	}
	for _, r := range rows {
		t.AddRow(r.Vendor, r.Pattern, fmt.Sprint(r.Found), fmt.Sprint(r.Total), Pct(r.Coverage))
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 6: per-cell failure CDFs are normal; their sigmas are lognormal.
// ---------------------------------------------------------------------------

// Fig6Result summarizes the per-cell distribution measurements.
type Fig6Result struct {
	// CellsMeasured is how many weak cells had their CDF sampled.
	CellsMeasured int
	// MedianKS / P90KS are quantiles of the per-cell Kolmogorov-Smirnov
	// statistic of measured failure fractions against the cell's normal
	// CDF (small = normal, the paper's Figure 6a).
	MedianKS, P90KS float64
	// SigmaLogMu / SigmaLogSigma are the lognormal fit of the per-cell
	// sigma population in seconds (Figure 6b).
	SigmaLogMu, SigmaLogSigma float64
	// FracSigmaBelow200ms is the fraction of cells with sigma < 200 ms
	// (the paper: "the majority of cells").
	FracSigmaBelow200ms float64
}

// Fig6Config drives the measurement.
type Fig6Config struct {
	Chip Y6Chip
	// SampleCells is how many weak cells get a measured CDF.
	SampleCells int
	// TrialsPerPoint is the paper's 16 iterations per interval point.
	TrialsPerPoint int
	// PointsPerCell is how many intervals around each cell's mean are
	// sampled.
	PointsPerCell int
}

// Y6Chip aliases ChipSpec (kept separate so Fig6's ablated default is
// explicit: VRT and DPD off, matching the paper's Figure 6 exclusions).
type Y6Chip = ChipSpec

// DefaultFig6Config uses an ablated chip at 40°C, as the paper does
// (Figure 6 data is taken at 40°C with VRT cells excluded).
func DefaultFig6Config() Fig6Config {
	chip := DefaultChipSpec(6)
	chip.DisableVRT = true
	chip.DisableDPD = true
	return Fig6Config{
		Chip:           chip,
		SampleCells:    40,
		TrialsPerPoint: 16,
		PointsPerCell:  7,
	}
}

// Fig6CellCDFs measures per-cell failure CDFs empirically and checks their
// normality, and fits the latent sigma population.
func Fig6CellCDFs(cfg Fig6Config) (*Fig6Result, error) {
	st, err := cfg.Chip.NewStation()
	if err != nil {
		return nil, err
	}
	st.SetAmbient(40)
	dev := st.Device()
	cells := dev.Cells(st.Clock())
	if len(cells) == 0 {
		return nil, fmt.Errorf("experiments: no weak cells")
	}
	// Pick sample cells spread across the retention domain, charged-high
	// for simplicity.
	var sample []dram.CellInfo
	for _, c := range cells {
		if c.ChargedVal == 1 && c.Mu > 0.5 && c.Mu < 6 {
			sample = append(sample, c)
		}
	}
	slices.SortFunc(sample, func(a, b dram.CellInfo) int { return cmp.Compare(a.Mu, b.Mu) })
	if len(sample) > cfg.SampleCells {
		stride := len(sample) / cfg.SampleCells
		picked := make([]dram.CellInfo, 0, cfg.SampleCells)
		for i := 0; i < len(sample) && len(picked) < cfg.SampleCells; i += stride {
			picked = append(picked, sample[i])
		}
		sample = picked
	}
	if len(sample) == 0 {
		return nil, fmt.Errorf("experiments: no suitable sample cells")
	}

	tempScale := cfg.Chip.Vendor.RetentionScale(40)
	var ksStats []float64
	for _, cell := range sample {
		// Measure the failure fraction at PointsPerCell intervals around
		// the cell's (temperature-adjusted) mean.
		mu := cell.Mu * tempScale
		sigma := cell.Sigma * tempScale
		var measured []float64 // one synthetic sample per observed failure position
		for pi := 0; pi < cfg.PointsPerCell; pi++ {
			z := -1.5 + 3*float64(pi)/float64(cfg.PointsPerCell-1)
			interval := mu + z*sigma
			if interval <= 0.065 {
				continue
			}
			fails := 0
			for trial := 0; trial < cfg.TrialsPerPoint; trial++ {
				st.WritePattern(patterns.Solid1())
				st.DisableRefresh()
				st.Wait(interval)
				st.EnableRefresh()
				for _, b := range st.ReadCompare() {
					if b == cell.Bit {
						fails++
						break
					}
				}
			}
			frac := float64(fails) / float64(cfg.TrialsPerPoint)
			// Compare measured fraction against the normal CDF via a KS
			// contribution: |frac - Phi(z)|.
			measured = append(measured, math.Abs(frac-stats.NormalCDF(interval, mu, sigma)))
		}
		if len(measured) == 0 {
			continue
		}
		worst := 0.0
		for _, m := range measured {
			if m > worst {
				worst = m
			}
		}
		ksStats = append(ksStats, worst)
	}
	if len(ksStats) == 0 {
		return nil, fmt.Errorf("experiments: no CDFs measured")
	}

	// Latent sigma population (Figure 6b).
	var sigmas []float64
	below := 0
	for _, c := range cells {
		s := c.Sigma * tempScale
		sigmas = append(sigmas, s)
		if s < 0.2 {
			below++
		}
	}
	mu, sg := stats.FitLogNormal(sigmas)

	return &Fig6Result{
		CellsMeasured:       len(ksStats),
		MedianKS:            stats.Percentile(ksStats, 50),
		P90KS:               stats.Percentile(ksStats, 90),
		SigmaLogMu:          mu,
		SigmaLogSigma:       sg,
		FracSigmaBelow200ms: float64(below) / float64(len(sigmas)),
	}, nil
}

// Fig6Table renders the per-cell CDF and sigma-population summary.
func Fig6Table(res *Fig6Result) *Table {
	t := &Table{
		Title:  "Figure 6: per-cell failure CDFs (normal) and sigma population (lognormal), 40°C",
		Header: []string{"metric", "value"},
		Caption: "paper: individual cells fail with normal CDFs; sigmas are lognormal with the " +
			"majority below 200ms",
	}
	t.AddRow("cells with measured CDFs", fmt.Sprint(res.CellsMeasured))
	t.AddRow("median |measured - Phi| (KS)", fmt.Sprintf("%.3f", res.MedianKS))
	t.AddRow("p90 |measured - Phi| (KS)", fmt.Sprintf("%.3f", res.P90KS))
	t.AddRow("sigma lognormal mu (log s)", fmt.Sprintf("%.3f", res.SigmaLogMu))
	t.AddRow("sigma lognormal sigma", fmt.Sprintf("%.3f", res.SigmaLogSigma))
	t.AddRow("fraction of sigmas < 200ms", Pct(res.FracSigmaBelow200ms))
	return t
}

// ---------------------------------------------------------------------------
// Figure 7: the (mu, sigma) distributions shift left and narrow as
// temperature rises.
// ---------------------------------------------------------------------------

// Fig7Row summarizes the latent parameter distribution at one temperature.
type Fig7Row struct {
	TempC       float64
	MedianMuS   float64
	MedianSigma float64
}

// Fig7TemperatureShift samples the distributions at several temperatures.
func Fig7TemperatureShift(chip ChipSpec, temps []float64) ([]Fig7Row, error) {
	st, err := chip.NewStation()
	if err != nil {
		return nil, err
	}
	cells := st.Device().Cells(st.Clock())
	if len(cells) == 0 {
		return nil, fmt.Errorf("experiments: no weak cells")
	}
	v := st.Device().Vendor()
	var out []Fig7Row
	for _, temp := range temps {
		scale := v.RetentionScale(temp)
		var mus, sigmas []float64
		for _, c := range cells {
			mus = append(mus, c.Mu*scale)
			sigmas = append(sigmas, c.Sigma*scale)
		}
		out = append(out, Fig7Row{
			TempC:       temp,
			MedianMuS:   stats.Percentile(mus, 50),
			MedianSigma: stats.Percentile(sigmas, 50),
		})
	}
	return out, nil
}

// Fig7Table renders the per-temperature medians.
func Fig7Table(rows []Fig7Row) *Table {
	t := &Table{
		Title:   "Figure 7: (mu, sigma) distributions vs temperature",
		Header:  []string{"temp", "median mu (s)", "median sigma (s)"},
		Caption: "paper: both distributions shift left (shorter, narrower) as temperature rises",
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%.0f°C", r.TempC),
			fmt.Sprintf("%.3f", r.MedianMuS), fmt.Sprintf("%.4f", r.MedianSigma))
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 8: the combined failure distribution over temperature and refresh
// interval — raising temperature is interchangeable with lengthening the
// interval.
// ---------------------------------------------------------------------------

// Fig8Result reports the equivalence between the two reach knobs.
type Fig8Result struct {
	// MeanFailProb[ti][ii] is the population mean single-read failure
	// probability at Temps[ti] and Intervals[ii].
	Temps        []float64
	Intervals    []float64
	MeanFailProb [][]float64
	// EquivalentDeltaIntervalPer10C is the interval extension (seconds)
	// that produces the same mean failure probability increase as +10°C,
	// evaluated at 45°C / 2.048 s (the paper: ~1 s at these conditions).
	EquivalentDeltaIntervalPer10C float64
}

// Fig8CombinedDistribution evaluates the combined distribution on a grid.
func Fig8CombinedDistribution(chip ChipSpec, temps, intervals []float64) (*Fig8Result, error) {
	st, err := chip.NewStation()
	if err != nil {
		return nil, err
	}
	dev := st.Device()
	cells := dev.Cells(st.Clock())
	if len(cells) == 0 {
		return nil, fmt.Errorf("experiments: no weak cells")
	}
	res := &Fig8Result{Temps: temps, Intervals: intervals}
	meanProb := func(tempC, interval float64) float64 {
		sum := 0.0
		for _, c := range cells {
			sum += dev.CellFailProb(c.Bit, interval, tempC, st.Clock())
		}
		return sum / float64(len(cells))
	}
	for _, temp := range temps {
		var row []float64
		for _, interval := range intervals {
			row = append(row, meanProb(temp, interval))
		}
		res.MeanFailProb = append(res.MeanFailProb, row)
	}
	// Find the interval delta at 45°C matching the probability at 55°C.
	base := meanProb(55, 2.048)
	lo, hi := 0.0, 6.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if meanProb(45, 2.048+mid) < base {
			lo = mid
		} else {
			hi = mid
		}
	}
	res.EquivalentDeltaIntervalPer10C = (lo + hi) / 2
	return res, nil
}

// Fig8Table renders the temperature x interval grid of mean failure
// probabilities.
func Fig8Table(res *Fig8Result) *Table {
	header := []string{"temp \\ tREFI"}
	for _, interval := range res.Intervals {
		header = append(header, Ms(interval))
	}
	t := &Table{
		Title:  "Figure 8: combined failure probability over temperature x interval",
		Header: header,
		Caption: fmt.Sprintf("+10°C is equivalent to extending the interval by %.2fs at 45°C/2048ms "+
			"(paper: ~1s)", res.EquivalentDeltaIntervalPer10C),
	}
	for ti, temp := range res.Temps {
		row := []string{fmt.Sprintf("%.0f°C", temp)}
		for ii := range res.Intervals {
			row = append(row, fmt.Sprintf("%.4f", res.MeanFailProb[ti][ii]))
		}
		t.AddRow(row...)
	}
	return t
}
