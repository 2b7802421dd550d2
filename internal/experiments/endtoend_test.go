package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"reaper/internal/dram"
	"reaper/internal/ecc"
)

func TestTable1Shape(t *testing.T) {
	rows := Table1TolerableRBER(ecc.UBERConsumer)
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Ordered by strength, each tolerating more.
	for i := 1; i < len(rows); i++ {
		if rows[i].TolerableRBER <= rows[i-1].TolerableRBER {
			t.Error("tolerable RBER not increasing with ECC strength")
		}
	}
	// Error counts scale linearly with capacity across the columns.
	for _, r := range rows {
		if len(r.TolerableErrors) != len(Table1Sizes) {
			t.Fatalf("row %s has %d columns", r.Code.Name, len(r.TolerableErrors))
		}
		for i := 1; i < len(r.TolerableErrors); i++ {
			ratio := r.TolerableErrors[i] / r.TolerableErrors[i-1]
			if math.Abs(ratio-2) > 1e-6 {
				t.Errorf("%s: column ratio %v, want 2", r.Code.Name, ratio)
			}
		}
	}
	// Paper anchor: SECDED at 2GB tolerates tens of errors.
	secded := rows[1]
	if secded.TolerableErrors[2] < 40 || secded.TolerableErrors[2] > 130 {
		t.Errorf("SECDED @2GB tolerates %v errors, want tens (paper: 65.3)",
			secded.TolerableErrors[2])
	}
	var sb strings.Builder
	Table1Render(rows).Render(&sb)
	if !strings.Contains(sb.String(), "SECDED") {
		t.Error("table did not render")
	}
}

func TestFig11Fig12Anchors(t *testing.T) {
	rows := Fig11Fig12ProfilingOverhead()
	var anchor *Fig11Row
	for i, r := range rows {
		if r.ChipGb == 64 && r.IntervalHours == 4 {
			anchor = &rows[i]
		}
		// REAPER is always cheaper than brute force.
		if r.ReaperFrac > r.BruteFraction {
			t.Errorf("REAPER fraction above brute at %+v", r)
		}
		if r.ReaperProfilingW > r.BruteProfilingW {
			t.Errorf("REAPER power above brute at %+v", r)
		}
	}
	if anchor == nil {
		t.Fatal("missing 64Gb/4h anchor row")
	}
	// Paper: 22.7% brute, 9.1% REAPER.
	if math.Abs(anchor.BruteFraction-0.227) > 0.02 {
		t.Errorf("brute fraction = %v, want ~0.227", anchor.BruteFraction)
	}
	if math.Abs(anchor.ReaperFrac-0.091) > 0.01 {
		t.Errorf("REAPER fraction = %v, want ~0.091", anchor.ReaperFrac)
	}
	// Overheads grow with chip size at fixed interval and shrink with the
	// profiling interval.
	frac := func(gb int, h float64) float64 {
		for _, r := range rows {
			if r.ChipGb == gb && r.IntervalHours == h {
				return r.BruteFraction
			}
		}
		t.Fatalf("missing row %dGb %vh", gb, h)
		return 0
	}
	if !(frac(8, 4) < frac(16, 4) && frac(16, 4) < frac(64, 4)) {
		t.Error("overhead not growing with chip size")
	}
	if !(frac(64, 32) < frac(64, 4) && frac(64, 4) < frac(64, 1)) {
		t.Error("overhead not shrinking with profiling interval")
	}
	var sb strings.Builder
	Fig11Table(rows).Render(&sb)
	if !strings.Contains(sb.String(), "64Gb") {
		t.Error("table did not render")
	}
}

func TestPaperImpliedCadence(t *testing.T) {
	// Anchored at ~9.4h for 1024ms, shrinking steeply with the interval.
	if got := PaperImpliedCadenceHours(1.024); math.Abs(got-9.4) > 0.01 {
		t.Errorf("cadence @1024ms = %v, want 9.4", got)
	}
	if PaperImpliedCadenceHours(1.280) >= PaperImpliedCadenceHours(1.024) {
		t.Error("cadence must shrink with interval")
	}
}

func fastFig13() Fig13Config {
	cfg := DefaultFig13Config()
	cfg.ChipGbs = []int{64}
	cfg.Intervals = []float64{0.512, 1.024, 1.280, 0}
	cfg.Mixes = 4
	cfg.InstructionsPerCore = 300_000
	return cfg
}

func TestFig13EndToEndShape(t *testing.T) {
	res, err := Fig13EndToEnd(context.Background(), fastFig13())
	if err != nil {
		t.Fatal(err)
	}
	cells := res.PaperImplied
	// 4 intervals x 3 mechanisms.
	if len(cells) != 12 {
		t.Fatalf("got %d cells", len(cells))
	}

	get := func(interval float64, mech string) Fig13Cell {
		c, ok := FindCell(cells, 64, interval, mech)
		if !ok {
			t.Fatalf("missing cell %v/%s", interval, mech)
		}
		return c
	}

	// Ideal profiling: gains grow with the interval and no-refresh is the
	// ceiling.
	i512 := get(0.512, "ideal")
	i1024 := get(1.024, "ideal")
	noref := get(0, "ideal")
	if !(i512.PerfGain.Mean > 0 && i1024.PerfGain.Mean >= i512.PerfGain.Mean*0.95) {
		t.Errorf("ideal gains not sensible: 512ms=%v 1024ms=%v",
			i512.PerfGain.Mean, i1024.PerfGain.Mean)
	}
	if noref.PerfGain.Mean < i1024.PerfGain.Mean*0.95 {
		t.Errorf("no-refresh (%v) should be at/above 1024ms ideal (%v)",
			noref.PerfGain.Mean, i1024.PerfGain.Mean)
	}

	// REAPER dominates brute force at every interval; both below ideal.
	for _, interval := range []float64{0.512, 1.024, 1.280} {
		b, r, i := get(interval, "brute"), get(interval, "reaper"), get(interval, "ideal")
		if r.PerfGain.Mean < b.PerfGain.Mean {
			t.Errorf("REAPER below brute at %v: %v vs %v",
				interval, r.PerfGain.Mean, b.PerfGain.Mean)
		}
		if r.PerfGain.Mean > i.PerfGain.Mean+1e-9 {
			t.Errorf("REAPER above ideal at %v", interval)
		}
		if b.OverheadFraction < r.OverheadFraction {
			t.Errorf("brute overhead below REAPER at %v", interval)
		}
	}

	// The paper's crossover: at 1280ms brute-force profiling overhead is
	// large enough to visibly separate the mechanisms.
	b1280, r1280 := get(1.280, "brute"), get(1.280, "reaper")
	if r1280.PerfGain.Mean-b1280.PerfGain.Mean < 0.05 {
		t.Errorf("1280ms REAPER-brute gap = %v, want pronounced (paper: ~14 points)",
			r1280.PerfGain.Mean-b1280.PerfGain.Mean)
	}

	// Power reduction grows with interval and is unaffected by mechanism
	// (profiling power is negligible).
	if !(i512.PowerReduction.Mean > 0 && noref.PowerReduction.Mean > i512.PowerReduction.Mean) {
		t.Errorf("power reductions not ordered: 512ms=%v noref=%v",
			i512.PowerReduction.Mean, noref.PowerReduction.Mean)
	}
	if math.Abs(b1280.PowerReduction.Mean-r1280.PowerReduction.Mean) > 1e-9 {
		t.Error("mechanism changed DRAM power reduction; profiling power should be negligible")
	}

	var sb strings.Builder
	Fig13Table(cells).Render(&sb)
	if !strings.Contains(sb.String(), "no-ref") {
		t.Error("table did not render")
	}
}

func TestFig13LongevityCadence(t *testing.T) {
	cfg := fastFig13()
	cfg.Intervals = []float64{1.024}
	res, err := Fig13EndToEnd(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := FindCell(res.Longevity, 64, 1.024, "brute")
	if !ok {
		t.Fatal("missing cell")
	}
	// The Equation 7 longevity cadence is far laxer than the
	// paper-implied cadence, so overhead should be small.
	if b.OverheadFraction > 0.05 {
		t.Errorf("longevity-cadence overhead = %v, want small", b.OverheadFraction)
	}
	if b.CadenceHours < 24 {
		t.Errorf("longevity cadence = %vh, want days", b.CadenceHours)
	}
}

func TestFig13RejectsBadConfig(t *testing.T) {
	cfg := fastFig13()
	cfg.Mixes = 0
	if _, err := Fig13EndToEnd(context.Background(), cfg); err == nil {
		t.Error("zero mixes not rejected")
	}
	cfg = fastFig13()
	cfg.ChipGbs = []int{7}
	if _, err := Fig13EndToEnd(context.Background(), cfg); err == nil {
		t.Error("unsupported chip density not rejected")
	}
}

// FindCell locates a cell in a Fig13 result set.
func FindCell(cells []Fig13Cell, gb int, interval float64, mech string) (Fig13Cell, bool) {
	for _, c := range cells {
		if c.ChipGb == gb && c.IntervalS == interval && c.Mechanism == mech {
			return c, true
		}
	}
	return Fig13Cell{}, false
}

func TestFindCellMissing(t *testing.T) {
	if _, ok := FindCell(nil, 8, 1, "brute"); ok {
		t.Error("FindCell on empty set returned ok")
	}
}

func TestChipSpecHelpers(t *testing.T) {
	spec := DefaultChipSpec(1)
	if spec.EffectiveBER(0) != 0 {
		t.Error("zero cells should give zero BER")
	}
	got := spec.EffectiveBER(1000)
	want := 1000.0 / (float64(spec.Bits) * spec.WeakScale)
	if math.Abs(got-want) > 1e-18 {
		t.Errorf("EffectiveBER = %v, want %v", got, want)
	}
	// Unscaled spec falls back to scale 1.
	raw := ChipSpec{Bits: 1 << 20, Vendor: dram.VendorB(), Seed: 1}
	if raw.EffectiveBER(10) != 10.0/float64(1<<20) {
		t.Error("unscaled EffectiveBER wrong")
	}
	// Chambered spec builds.
	spec.Chamber = true
	spec.Bits = 8 << 20
	st, err := spec.NewStation()
	if err != nil {
		t.Fatal(err)
	}
	if a := st.Ambient(); a < 44 || a > 46 {
		t.Errorf("chambered ambient = %v", a)
	}
}
