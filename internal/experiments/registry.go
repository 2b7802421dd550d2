package experiments

import (
	"context"
	"fmt"
	"io"

	"reaper/internal/dram"
	"reaper/internal/ecc"
	"reaper/internal/longevity"
	"reaper/internal/perfmodel"
)

// Entry is one result of the evaluation, wired exactly once: Run builds the
// entry's one configuration for seed and workers, runs it, and writes its
// text tables to w. The output is byte-identical at any worker count. A
// telemetry registry on ctx (telemetry.WithRegistry) records what the run
// simulated.
type Entry struct {
	ID  string
	Run func(ctx context.Context, w io.Writer, seed uint64, workers int) error
}

// Entries returns the registry in paper order: the characterization
// (Section 5), the tradeoff space (Section 6), the end-to-end evaluation
// (Section 7), then the studies that go beyond the paper. cmd/reproduce
// runs them, and the repository benchmark checks each one's seed-1 output
// against testdata/reproduce/<ID>.txt.
func Entries() []Entry {
	return []Entry{
		{"fig2", tableEntry(runFig2, Fig2Table)},
		{"fig3", tableEntry(runFig3, Fig3Table)},
		{"fig4", tableEntry(runFig4, Fig4Table)},
		{"fig5", tableEntry(runFig5, Fig5Table)},
		{"fig6", tableEntry(runFig6, Fig6Table)},
		{"fig7", tableEntry(runFig7, Fig7Table)},
		{"fig8", tableEntry(runFig8, Fig8Table)},
		{"fig9", runFig9},
		{"population", tableEntry(runPopulation, PopulationTable)},
		{"table1", tableEntry(runTable1, Table1Render)},
		{"longevity", runLongevity},
		{"eq9", runEq9},
		{"fig11", tableEntry(runFig11, Fig11Table)},
		{"fig13", runFig13},
		{"uber", tableEntry(runUBER, uberTable)},
		{"ablation-vrt", tableEntry(runAblationVRT, vrtAblationTable)},
		{"ablation-dpd", tableEntry(runAblationDPD, dpdAblationTable)},
		{"ablation-knobs", tableEntry(runAblationKnobs, knobAblationTable)},
		{"passive-scrub", tableEntry(passiveVsActive, passiveScrubTable)},
		{"classification", tableEntry(runClassification, classificationTable)},
	}
}

// tableEntry makes the Run of an entry that renders its result as one table.
func tableEntry[R any](run func(ctx context.Context, seed uint64, workers int) (R, error),
	render func(R) *Table) func(context.Context, io.Writer, uint64, int) error {
	return func(ctx context.Context, w io.Writer, seed uint64, workers int) error {
		res, err := run(ctx, seed, workers)
		if err != nil {
			return err
		}
		render(res).Render(w)
		return nil
	}
}

func runFig2(ctx context.Context, seed uint64, workers int) ([]Fig2Row, error) {
	cfg := DefaultFig2Config()
	cfg.Seed, cfg.Workers = seed, workers
	return Fig2RetentionDistribution(ctx, cfg)
}

func runFig3(_ context.Context, seed uint64, _ int) (*Fig3Result, error) {
	cfg := DefaultFig3Config()
	cfg.Chip.Seed = seed
	return Fig3VRTAccumulation(cfg)
}

func runFig4(ctx context.Context, seed uint64, workers int) ([]Fig4Row, error) {
	cfg := DefaultFig4Config()
	cfg.Seed, cfg.Workers = seed, workers
	return Fig4AccumulationRates(ctx, cfg)
}

func runFig5(ctx context.Context, seed uint64, workers int) ([]Fig5Row, error) {
	cfg := DefaultFig5Config()
	cfg.Seed, cfg.Workers = seed, workers
	return Fig5PatternCoverage(ctx, cfg)
}

func runFig6(_ context.Context, seed uint64, _ int) (*Fig6Result, error) {
	cfg := DefaultFig6Config()
	cfg.Chip.Seed = seed
	return Fig6CellCDFs(cfg)
}

func runFig7(_ context.Context, seed uint64, _ int) ([]Fig7Row, error) {
	return Fig7TemperatureShift(DefaultChipSpec(seed), []float64{40, 45, 50, 55})
}

func runFig8(_ context.Context, seed uint64, _ int) (*Fig8Result, error) {
	return Fig8CombinedDistribution(DefaultChipSpec(seed),
		[]float64{40, 45, 50, 55}, []float64{0.512, 1.024, 2.048, 4.096})
}

// runFig9 prints the Figures 9-10 grid and the Section 6.1.2 headline.
func runFig9(ctx context.Context, w io.Writer, seed uint64, workers int) error {
	cfg := DefaultFig9Config()
	cfg.Seed, cfg.Chip.Seed, cfg.Workers = seed, seed, workers
	points, err := Fig9Fig10Tradeoff(ctx, cfg)
	if err != nil {
		return err
	}
	Fig9Table(points).Render(w)
	h, err := Headline(points)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "headline (paper Section 6.1.2): at +250ms reach, coverage %.4f, FPR %.3f, speedup %.2fx\n",
		h.Coverage, h.FalsePositiveRate, h.Speedup)
	fmt.Fprintf(w, "most aggressive grid point: speedup %.2fx at FPR %.3f\n",
		h.AggressiveSpeedup, h.AggressiveFPR)
	fmt.Fprintln(w, "(paper: 2.5x at 99% coverage and <50% FPR; up to 3.5x at >75% FPR)")
	return nil
}

func runPopulation(ctx context.Context, seed uint64, workers int) ([]PopulationResult, error) {
	cfg := DefaultPopulationConfig()
	cfg.Seed, cfg.Workers = seed, workers
	return PopulationSweep(ctx, cfg)
}

func runTable1(context.Context, uint64, int) ([]Table1Row, error) {
	return Table1TolerableRBER(ecc.UBERConsumer), nil
}

// runLongevity is the Section 6.2.3 worked example: 2GB under SECDED at
// 1024 ms and 45°C, profiled to 99% coverage, with the paper's Table 1
// budget of 65 tolerable failures.
func runLongevity(_ context.Context, w io.Writer, _ uint64, _ int) error {
	m := longevity.Model{
		Code:       ecc.SECDED(),
		TargetUBER: ecc.UBERConsumer,
		Bytes:      2 << 30,
		Vendor:     dram.VendorB(),
		TempC:      45,
	}
	d, err := m.LongevityWithBudget(1.024, 0.99, 65)
	if err != nil {
		return err
	}
	t := &Table{
		Title:   "Section 6.2.3: profile longevity (2GB, SECDED, 1024ms @45°C, 99% coverage)",
		Header:  []string{"tolerable failures N", "longevity (days)"},
		Caption: "paper: T = (65 - 24.6) / 0.73 cells/hour => ~2.3 days",
	}
	t.AddRow("65", F(d.Hours()/24))
	t.Render(w)
	return nil
}

// runEq9 evaluates the Section 7.3.1 examples of Equation 9: one round of
// 6 patterns x 6 iterations at 1024 ms over a 32-chip module.
func runEq9(_ context.Context, w io.Writer, _ uint64, _ int) error {
	t := &Table{
		Title:   "Equation 9: profiling round runtime (32-chip module, 6 patterns x 6 iterations @1024ms)",
		Header:  []string{"chip", "round (min)"},
		Caption: "paper (Section 7.3.1): 3.01 min for 32x8Gb, 19.8 min for 32x64Gb",
	}
	for _, gb := range []int{8, 64} {
		c := perfmodel.RoundConfig{
			TREFI: 1.024, NumPatterns: roundPatterns, NumIterations: 6,
			TotalBytes: moduleBytes(gb),
		}
		t.AddRow(fmt.Sprintf("%dGb", gb), F(c.RoundSeconds()/60))
	}
	t.Render(w)
	return nil
}

func runFig11(context.Context, uint64, int) ([]Fig11Row, error) {
	return Fig11Fig12ProfilingOverhead(), nil
}

// runFig13 prints Figure 13 under the paper-implied profiling cadence, then
// under the Equation 7 longevity cadence, both from one set of simulations.
func runFig13(ctx context.Context, w io.Writer, seed uint64, workers int) error {
	cfg := DefaultFig13Config()
	cfg.Seed, cfg.Workers = seed, workers
	res, err := Fig13EndToEnd(ctx, cfg)
	if err != nil {
		return err
	}
	Fig13Table(res.PaperImplied).Render(w)
	Fig13Table(res.Longevity).Render(w)
	return nil
}

func runUBER(_ context.Context, seed uint64, _ int) (*UBERValidationResult, error) {
	cfg := DefaultUBERValidationConfig()
	cfg.Chip.Seed = seed
	return UBERValidation(cfg)
}

func uberTable(res *UBERValidationResult) *Table {
	t := &Table{
		Title:   "Equation 5 independence: predicted vs measured multi-bit word failures",
		Header:  []string{"words", "rounds", "measured / predicted"},
		Caption: "Equation 5 assumes a word's cells fail independently; a ratio near 1 confirms it in the device model",
	}
	t.AddRow(fmt.Sprint(res.WordsTested), fmt.Sprint(res.Rounds), F(res.Ratio))
	return t
}

// ablationChip is the 16 Mbit vendor-B chip the ablations run on.
func ablationChip(seed uint64, weakScale float64) ChipSpec {
	return ChipSpec{Bits: 16 << 20, WeakScale: weakScale, Vendor: dram.VendorB(), Seed: seed}
}

func runAblationVRT(ctx context.Context, seed uint64, workers int) (*VRTAblationResult, error) {
	return AblationVRT(ctx, ablationChip(seed, 100), 2.048, 50, 30, workers)
}

func vrtAblationTable(res *VRTAblationResult) *Table {
	t := &Table{
		Title:   "VRT ablation: new failures after the base population is exhausted (2048ms, 30 h)",
		Header:  []string{"chip", "new cells/hour"},
		Caption: "without VRT accumulation collapses: online profiling is needed because of VRT",
	}
	t.AddRow("with VRT", F(res.NewCellsPerHourWithVRT))
	t.AddRow("without VRT", F(res.NewCellsPerHourWithoutVRT))
	return t
}

func runAblationDPD(ctx context.Context, seed uint64, workers int) (*DPDAblationResult, error) {
	return AblationDPD(ctx, ablationChip(seed, 30), 1.024, 8, workers)
}

func dpdAblationTable(res *DPDAblationResult) *Table {
	t := &Table{
		Title:   "DPD ablation: coverage of one solid pattern pair at +250ms reach (1024ms target)",
		Header:  []string{"chip", "coverage"},
		Caption: "with DPD one pattern pair cannot reach full coverage: multiple patterns are needed because of DPD",
	}
	t.AddRow("with DPD", fmt.Sprintf("%.4f", res.SinglePatternCoverageWithDPD))
	t.AddRow("without DPD", fmt.Sprintf("%.4f", res.SinglePatternCoverageWithoutDPD))
	return t
}

func runAblationKnobs(ctx context.Context, seed uint64, workers int) (*KnobAblationResult, error) {
	return AblationReachKnobs(ctx, ablationChip(seed, 30), 1.024, 0.5, 5, 8, workers)
}

func knobAblationTable(res *KnobAblationResult) *Table {
	t := &Table{
		Title:   "Reach knobs: coverage at matched aggressiveness (1024ms target)",
		Header:  []string{"reach", "coverage"},
		Caption: "paper (Section 5.5): the interval and temperature knobs are interchangeable",
	}
	for _, p := range []KnobPoint{res.IntervalOnly, res.TempOnly, res.Combined} {
		t.AddRow(fmt.Sprintf("+%s +%.1f°C", Ms(p.Reach.DeltaInterval), p.Reach.DeltaTempC),
			fmt.Sprintf("%.4f", p.Coverage))
	}
	return t
}

func passiveScrubTable(coverage [2]float64) *Table {
	t := &Table{
		Title:   "Passive ECC scrubbing vs active reach profiling (2048ms target)",
		Header:  []string{"profiler", "coverage"},
		Caption: "paper (Section 3.2): a scrubber only sees failures under the data that happens to be stored",
	}
	t.AddRow("24 hourly scrubs of benign resident data", fmt.Sprintf("%.4f", coverage[0]))
	t.AddRow("one reach profile, +250ms, 16 iterations", fmt.Sprintf("%.4f", coverage[1]))
	return t
}

func runClassification(_ context.Context, seed uint64, _ int) (*ClassificationResult, error) {
	cfg := DefaultClassificationConfig()
	cfg.Chip.Seed = seed
	return ClassificationFallacy(cfg)
}

func classificationTable(res *ClassificationResult) *Table {
	t := &Table{
		Title:   "Weak/strong classification: cells labelled strong that fail later",
		Header:  []string{"labelled weak", "late failures", "late / weak"},
		Caption: "paper (Section 5.5): no finite observation window classifies cells as weak or strong",
	}
	t.AddRow(fmt.Sprint(res.LabelledWeak), fmt.Sprint(res.LateFailures), F(res.LateFailureRatio))
	return t
}
