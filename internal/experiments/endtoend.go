package experiments

import (
	"context"
	"fmt"
	"math"

	"reaper/internal/dram"
	"reaper/internal/ecc"
	"reaper/internal/longevity"
	"reaper/internal/parallel"
	"reaper/internal/perfmodel"
	"reaper/internal/power"
	"reaper/internal/stats"
	"reaper/internal/sysperf"
	"reaper/internal/workload"
)

// ---------------------------------------------------------------------------
// Table 1: tolerable RBER and tolerable bit-error counts per ECC strength.
// ---------------------------------------------------------------------------

// Table1Row is one ECC strength's budget line.
type Table1Row struct {
	Code          ecc.Code
	TolerableRBER float64
	// TolerableErrors is indexed like Table1Sizes.
	TolerableErrors []float64
}

// Table1Sizes are the paper's capacity columns.
var Table1Sizes = []int64{512 << 20, 1 << 30, 2 << 30, 4 << 30, 8 << 30}

// Table1TolerableRBER evaluates the paper's Table 1 for the given UBER
// target.
func Table1TolerableRBER(targetUBER float64) []Table1Row {
	var rows []Table1Row
	for _, code := range ecc.StandardCodes() {
		r := Table1Row{Code: code, TolerableRBER: code.TolerableRBER(targetUBER)}
		for _, sz := range Table1Sizes {
			r.TolerableErrors = append(r.TolerableErrors, code.TolerableBitErrors(targetUBER, sz))
		}
		rows = append(rows, r)
	}
	return rows
}

// Table1Render renders the rows.
func Table1Render(rows []Table1Row) *Table {
	t := &Table{
		Title:  "Table 1: tolerable RBER and bit errors (UBER 1e-15)",
		Header: []string{"code", "tolerable RBER", "512MB", "1GB", "2GB", "4GB", "8GB"},
		Caption: "paper: 1.0e-15 / 3.8e-9 / 6.9e-7 tolerable RBER; our exact Eq 6 solver " +
			"lands within ~1.5x (see EXPERIMENTS.md)",
	}
	for _, r := range rows {
		cells := []string{r.Code.Name, fmt.Sprintf("%.2e", r.TolerableRBER)}
		for _, e := range r.TolerableErrors {
			cells = append(cells, fmt.Sprintf("%.3g", e))
		}
		t.AddRow(cells...)
	}
	return t
}

// ---------------------------------------------------------------------------
// Figures 11 and 12: profiling time fraction and profiling power across
// online profiling intervals and chip densities.
// ---------------------------------------------------------------------------

// Fig11Row is one (chip size, profiling interval) sample.
type Fig11Row struct {
	ChipGb        int
	IntervalHours float64
	BruteFraction float64
	ReaperFrac    float64
	// Fig12 companions: average DRAM power consumed by the profiling
	// traffic itself.
	BruteProfilingW  float64
	ReaperProfilingW float64
}

// The modelled system of Figures 11-13 (Section 7.2): modules of 32 chips,
// profiled online in rounds of 6 data patterns x 16 iterations, which
// REAPER shortens by its 2.5x speedup (Section 6.1.2). The Equation 9
// example reuses the module size and the pattern count.
const (
	chipsPerModule  = 32
	roundPatterns   = 6
	roundIterations = 16
	reaperSpeedup   = 2.5
)

// moduleBytes returns the capacity of a module of chipGb-gigabit chips.
func moduleBytes(chipGb int) int64 {
	return chipsPerModule * int64(chipGb) * (1 << 30) / 8
}

// Fig11Fig12ProfilingOverhead evaluates both figures analytically, for
// rounds at 1024 ms on the paper's chip sizes and profiling intervals.
func Fig11Fig12ProfilingOverhead() []Fig11Row {
	var rows []Fig11Row
	for _, gb := range []int{8, 16, 32, 64} {
		brute := perfmodel.RoundConfig{
			TREFI: 1.024, NumPatterns: roundPatterns,
			NumIterations: roundIterations, TotalBytes: moduleBytes(gb),
		}
		reaper := brute
		reaper.SpeedupFactor = reaperSpeedup
		cmds := brute.Commands(power.RowBytes)
		for _, h := range []float64{1, 2, 4, 8, 16, 32} {
			sec := h * 3600
			bruteW := power.AccessWatts(cmds.BytesRead, cmds.BytesWritten, cmds.RowActivations, sec)
			rows = append(rows, Fig11Row{
				ChipGb:          gb,
				IntervalHours:   h,
				BruteFraction:   brute.OverheadFraction(sec),
				ReaperFrac:      reaper.OverheadFraction(sec),
				BruteProfilingW: bruteW,
				// REAPER runs fewer effective passes per round (the
				// speedup shortens the round), so its traffic per
				// interval shrinks by the same factor.
				ReaperProfilingW: bruteW / reaperSpeedup,
			})
		}
	}
	return rows
}

// Fig11Table renders the rows.
func Fig11Table(rows []Fig11Row) *Table {
	t := &Table{
		Title:  "Figures 11-12: profiling time fraction and profiling power (32-chip modules)",
		Header: []string{"chip", "interval", "brute frac", "REAPER frac", "brute W", "REAPER W"},
		Caption: "paper anchor: 64Gb @ 4h -> 22.7% brute / 9.1% REAPER; profiling power is " +
			"negligible next to the module's tens of watts",
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%dGb", r.ChipGb), fmt.Sprintf("%gh", r.IntervalHours),
			Pct(r.BruteFraction), Pct(r.ReaperFrac),
			fmt.Sprintf("%.4f", r.BruteProfilingW), fmt.Sprintf("%.4f", r.ReaperProfilingW))
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 13: end-to-end system performance and DRAM power across refresh
// intervals, for brute-force profiling, REAPER, and ideal (zero-overhead)
// profiling.
// ---------------------------------------------------------------------------

// PaperImpliedCadenceHours is the online profiling interval the paper's
// reported Figure 13 overheads imply, as a function of the target refresh
// interval (seconds).
func PaperImpliedCadenceHours(tREFI float64) float64 {
	return 9.4 * math.Pow(tREFI/1.024, -3.85)
}

// mixCores is the number of cores, and so of benchmarks, in a Fig 13
// workload mix.
const mixCores = 4

// Fig13Config drives the end-to-end evaluation.
type Fig13Config struct {
	ChipGbs   []int
	Intervals []float64 // target refresh intervals; 0 means no refresh
	// Mixes is the number of random 4-core workload mixes (paper: 20).
	Mixes int
	// InstructionsPerCore bounds each simulation.
	InstructionsPerCore int64
	Seed                uint64

	// Workers bounds the pool simulating workload mixes concurrently; <= 0
	// means one worker per CPU. Each mix simulation is pure, so results are
	// identical at any worker count.
	Workers int
}

// DefaultFig13Config mirrors the paper's setup at bench scale.
func DefaultFig13Config() Fig13Config {
	return Fig13Config{
		ChipGbs:             []int{8, 64},
		Intervals:           []float64{0.128, 0.256, 0.512, 0.768, 1.024, 1.280, 1.536, 0},
		Mixes:               20,
		InstructionsPerCore: 1_000_000,
		Seed:                13,
	}
}

// Fig13Cell is the distribution of a metric across workload mixes for one
// (chip size, interval, mechanism).
type Fig13Cell struct {
	ChipGb    int
	IntervalS float64 // 0 = no refresh
	Mechanism string  // "brute", "reaper", "ideal"
	// PerfGain is the box over mixes of weighted-speedup improvement vs
	// the 64 ms baseline, including profiling overhead.
	PerfGain stats.BoxStats
	// PowerReduction is the box over mixes of DRAM power reduction vs the
	// 64 ms baseline.
	PowerReduction stats.BoxStats
	// OverheadFraction is the profiling time fraction applied.
	OverheadFraction float64
	// CadenceHours is the online profiling interval used.
	CadenceHours float64
}

// Fig13Result is the end-to-end evaluation under two models of the online
// profiling interval. Both come from one set of simulations: the cadence
// enters only the profiling overhead charged against the simulated gains.
type Fig13Result struct {
	// PaperImplied uses the profiling cadence implied by the overheads the
	// paper reports in Figures 11/13 (PaperImpliedCadenceHours, a power law
	// in the refresh interval anchored at ~9.4 h @ 1024 ms). The paper's own
	// Section 6.2.3 longevity example implies a much laxer cadence; the two
	// are mutually inconsistent, and this model reproduces the figure. See
	// EXPERIMENTS.md.
	PaperImplied []Fig13Cell
	// Longevity derives the cadence from the Equation 7 longevity model with
	// full coverage (the paper's stated best-case assumption).
	Longevity []Fig13Cell
}

// fig13Sims holds one (chip, interval) simulation of every mix.
type fig13Sims struct {
	ws    []float64 // weighted speedup per mix
	power []float64 // average DRAM power per mix (W)
}

// Fig13EndToEnd runs the full evaluation: simulate every mix at the
// baseline and at each target interval, apply Equation 8 with each
// mechanism's profiling overhead under both cadence models, and evaluate
// DRAM power from the measured traffic.
func Fig13EndToEnd(ctx context.Context, cfg Fig13Config) (*Fig13Result, error) {
	if cfg.Mixes <= 0 {
		return nil, fmt.Errorf("experiments: invalid mix config")
	}
	mixes := workload.Mixes(cfg.Mixes, mixCores, cfg.Seed)
	res := &Fig13Result{}

	for _, gb := range cfg.ChipGbs {
		bytes := moduleBytes(gb)

		// Alone-mode IPCs are taken at the 64 ms baseline and used as the
		// fixed denominator for every interval, so the weighted-speedup
		// ratio reflects the actual throughput change (the paper
		// normalizes all results to the 64 ms baseline).
		baseCfg, err := sysperf.DefaultConfig(gb, 0.064)
		if err != nil {
			return nil, err
		}
		baseCfg.InstructionsPerCore = cfg.InstructionsPerCore
		baseCfg.Seed = cfg.Seed
		baseAlone := sysperf.NewAloneIPCCache(baseCfg)

		runAll := func(tREFI float64) (fig13Sims, error) {
			scfg := baseCfg
			scfg.TREFI = tREFI
			// Mixes are independent pure simulations; fan them out.
			type mixOut struct{ ws, power float64 }
			per, err := parallel.Map(ctx, len(mixes), cfg.Workers,
				func(_ context.Context, i int) (mixOut, error) {
					mix := mixes[i]
					res, err := sysperf.Simulate(mix, scfg)
					if err != nil {
						return mixOut{}, err
					}
					ws, err := sysperf.WeightedSpeedup(res, mix, baseAlone.IPC)
					if err != nil {
						return mixOut{}, err
					}
					// Scale request traffic to the module: the simulator's
					// requests are 64B cache lines.
					dur := res.DurationSec
					rbps := float64(res.Traffic.Reads) * 64 / dur
					wbps := float64(res.Traffic.Writes) * 64 / dur
					aps := float64(res.Traffic.Activations) / dur
					b := power.SystemPower(bytes, tREFI, rbps, wbps, aps)
					return mixOut{ws: ws, power: b.TotalW()}, nil
				})
			if err != nil {
				return fig13Sims{}, err
			}
			var out fig13Sims
			for _, m := range per {
				out.ws = append(out.ws, m.ws)
				out.power = append(out.power, m.power)
			}
			return out, nil
		}

		base, err := runAll(0.064)
		if err != nil {
			return nil, err
		}

		for _, interval := range cfg.Intervals {
			relaxed, err := runAll(interval)
			if err != nil {
				return nil, err
			}
			// No cadence applies when refresh is disabled entirely, since
			// "no refresh" is the upper-bound bar the paper draws without
			// profiling.
			paper, lon := math.Inf(1), math.Inf(1)
			if interval > 0 {
				paper, lon = PaperImpliedCadenceHours(interval), longevityCadenceHours(bytes, interval)
			}
			res.PaperImplied = append(res.PaperImplied, fig13Cells(gb, bytes, interval, paper, base, relaxed)...)
			res.Longevity = append(res.Longevity, fig13Cells(gb, bytes, interval, lon, base, relaxed)...)
		}
	}
	return res, nil
}

// longevityCadenceHours is the Equation 7 longevity of a vendor-B module's
// profile at the interval with full coverage, or 0 (profile continuously)
// when coverage cannot keep up.
func longevityCadenceHours(moduleBytes int64, interval float64) float64 {
	m := longevity.Model{
		Code:       ecc.SECDED(),
		TargetUBER: ecc.UBERConsumer,
		Bytes:      moduleBytes,
		Vendor:     dram.VendorB(),
		TempC:      45,
	}
	d, err := m.Longevity(interval, 1.0)
	if err != nil {
		return 0
	}
	return d.Hours()
}

// fig13Cells charges each mechanism's profiling overhead, at a cadence in
// hours, against the simulated gains of one (chip, interval).
func fig13Cells(gb int, moduleBytes int64, interval, cadence float64, base, relaxed fig13Sims) []Fig13Cell {
	overBrute, overReaper := 0.0, 0.0
	if interval > 0 {
		round := perfmodel.RoundConfig{
			TREFI: interval, NumPatterns: roundPatterns,
			NumIterations: roundIterations, TotalBytes: moduleBytes,
		}
		overBrute = round.OverheadFraction(cadence * 3600)
		round.SpeedupFactor = reaperSpeedup
		overReaper = round.OverheadFraction(cadence * 3600)
	}
	mech := []struct {
		name string
		over float64
	}{
		{"brute", overBrute},
		{"reaper", overReaper},
		{"ideal", 0},
	}
	var cells []Fig13Cell
	for _, m := range mech {
		var gains, reductions []float64
		for i := range base.ws {
			idealGain := relaxed.ws[i] / base.ws[i]
			gains = append(gains, perfmodel.RealIPC(idealGain, m.over)-1)
			reductions = append(reductions, 1-relaxed.power[i]/base.power[i])
		}
		cells = append(cells, Fig13Cell{
			ChipGb:           gb,
			IntervalS:        interval,
			Mechanism:        m.name,
			PerfGain:         stats.Box(gains),
			PowerReduction:   stats.Box(reductions),
			OverheadFraction: m.over,
			CadenceHours:     cadence,
		})
	}
	return cells
}

// Fig13Table renders the cells.
func Fig13Table(cells []Fig13Cell) *Table {
	t := &Table{
		Title: "Figure 13: end-to-end performance gain and DRAM power reduction vs 64ms baseline",
		Header: []string{"chip", "tREFI", "mech", "perf mean", "perf max", "power mean",
			"overhead", "cadence"},
		Caption: "paper (64Gb): REAPER best point 512ms (+16.3% avg); at 1024ms REAPER +13.5% " +
			"vs brute +7.5%; at 1280ms brute goes negative (-5.4%) while REAPER stays +8.6%",
	}
	for _, c := range cells {
		interval := "no-ref"
		if c.IntervalS > 0 {
			interval = Ms(c.IntervalS)
		}
		cadence := "-"
		if !math.IsInf(c.CadenceHours, 1) && c.IntervalS > 0 {
			cadence = fmt.Sprintf("%.1fh", c.CadenceHours)
		}
		t.AddRow(fmt.Sprintf("%dGb", c.ChipGb), interval, c.Mechanism,
			Pct(c.PerfGain.Mean), Pct(c.PerfGain.Max),
			Pct(c.PowerReduction.Mean), Pct(c.OverheadFraction), cadence)
	}
	return t
}
