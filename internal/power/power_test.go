package power

import (
	"math"
	"testing"

	"reaper/internal/perfmodel"
)

// ReductionVsBaseline returns the fractional power reduction of a breakdown
// relative to a baseline breakdown (Figure 13 bottom's metric).
func ReductionVsBaseline(baseline, other Breakdown) float64 {
	if baseline.TotalW() <= 0 {
		return 0
	}
	return 1 - other.TotalW()/baseline.TotalW()
}

func TestRefreshWattsScaling(t *testing.T) {
	base := RefreshWatts(8<<30, 0.064)
	if base <= 0 {
		t.Fatal("refresh power must be positive")
	}
	// Linear in capacity.
	if r := RefreshWatts(64<<30, 0.064) / base; math.Abs(r-8) > 1e-9 {
		t.Errorf("capacity scaling = %v, want 8", r)
	}
	// Inverse in interval.
	if r := base / RefreshWatts(8<<30, 0.128); math.Abs(r-2) > 1e-9 {
		t.Errorf("interval scaling = %v, want 2", r)
	}
	// Disabled refresh costs nothing.
	if RefreshWatts(8<<30, 0) != 0 {
		t.Error("disabled refresh should cost 0")
	}
}

func TestRefreshShareGrowsWithCapacity(t *testing.T) {
	// The motivation of the paper: refresh is a large share of DRAM power
	// at high densities. The share at default tREFI must grow with
	// capacity and be substantial (tens of percent) for a 64Gb-class
	// module while modest for 8Gb.
	share := func(bytes int64) float64 {
		b := SystemPower(bytes, 0.064, 0, 0, 0)
		return b.RefreshW / b.TotalW()
	}
	s8 := share(8 << 30 / 8 * 32)   // 32 x 8Gb chips
	s64 := share(64 << 30 / 8 * 32) // 32 x 64Gb chips
	if s64 <= s8 {
		t.Errorf("refresh share did not grow with capacity: %v vs %v", s8, s64)
	}
	if s64 < 0.3 || s64 > 0.7 {
		t.Errorf("64Gb refresh share = %v, want paper-like 0.3-0.7", s64)
	}
}

func TestBackgroundWatts(t *testing.T) {
	got := BackgroundWatts(2 << 30)
	want := backgroundBaseW + backgroundMWPerGB*2e-3
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("background = %v, want %v", got, want)
	}
}

func TestAccessEnergyAndWatts(t *testing.T) {
	e := AccessEnergyJoules(1000, 2000, 3)
	want := (1000*readPJPerByte + 2000*writePJPerByte + 3*activatePJ) * 1e-12
	if math.Abs(e-want) > 1e-20 {
		t.Errorf("energy = %v, want %v", e, want)
	}
	if w := AccessWatts(1000, 2000, 3, 2); math.Abs(w-e/2) > 1e-20 {
		t.Errorf("watts = %v, want %v", w, e/2)
	}
	if AccessWatts(1, 1, 1, 0) != 0 {
		t.Error("zero interval should give zero watts")
	}
}

func TestProfilingPowerIsTiny(t *testing.T) {
	// Figure 12's claim: profiling power is negligible because a round is
	// dominated by waiting, not accessing. One brute-force round every 4
	// hours on 32x8Gb must cost far less than 1% of the module's baseline
	// power.
	bytes := int64(32 * (8 << 30) / 8)
	round := perfmodel.RoundConfig{
		TREFI: 1.024, NumPatterns: 6, NumIterations: 16, TotalBytes: bytes,
	}
	cmds := round.Commands(RowBytes)
	profilingW := AccessWatts(cmds.BytesRead, cmds.BytesWritten, cmds.RowActivations, 4*3600)
	baseline := SystemPower(bytes, 0.064, 0, 0, 0).TotalW()
	if profilingW/baseline > 0.01 {
		t.Errorf("profiling power %v W is %v of baseline %v W; want < 1%%",
			profilingW, profilingW/baseline, baseline)
	}
	if profilingW <= 0 {
		t.Error("profiling power must still be positive")
	}
}

func TestSystemPowerBreakdown(t *testing.T) {
	b := SystemPower(8<<30, 0.064, 1e9, 5e8, 1e6)
	if b.BackgroundW <= 0 || b.RefreshW <= 0 || b.AccessW <= 0 {
		t.Errorf("all components should be positive: %+v", b)
	}
	if math.Abs(b.TotalW()-(b.BackgroundW+b.RefreshW+b.AccessW)) > 1e-12 {
		t.Error("TotalW inconsistent")
	}
}

func TestReductionVsBaseline(t *testing.T) {
	bytes := int64(32 * (64 << 30) / 8)
	base := SystemPower(bytes, 0.064, 0, 0, 0)
	noRef := SystemPower(bytes, 0, 0, 0, 0)
	red := ReductionVsBaseline(base, noRef)
	// Eliminating refresh on a 64Gb-class module should cut a large
	// fraction of DRAM power (paper: ~41% average).
	if red < 0.3 || red > 0.7 {
		t.Errorf("no-refresh reduction = %v, want 0.3-0.7", red)
	}
	// Longer interval reduces power monotonically.
	r512 := ReductionVsBaseline(base, SystemPower(bytes, 0.512, 0, 0, 0))
	r1024 := ReductionVsBaseline(base, SystemPower(bytes, 1.024, 0, 0, 0))
	if !(0 < r512 && r512 < r1024 && r1024 < red) {
		t.Errorf("reductions not ordered: %v %v %v", r512, r1024, red)
	}
	if ReductionVsBaseline(Breakdown{}, noRef) != 0 {
		t.Error("zero baseline should give zero reduction")
	}
}

// TestSystemPowerBitPinned pins SystemPower's breakdown bit for bit for a
// 32 x 8 Gb module at 64 ms and a 32 x 64 Gb module at 1024 ms.
func TestSystemPowerBitPinned(t *testing.T) {
	for _, tc := range []struct {
		bytes int64
		tREFI float64
		want  Breakdown
	}{
		{32 * (8 << 30) / 8, 0.064, Breakdown{BackgroundW: 17.92, RefreshW: 3.1981568, AccessW: 0.46499999999999997}},
		{32 * (64 << 30) / 8, 1.024, Breakdown{BackgroundW: 31.36, RefreshW: 1.5990784, AccessW: 0.46499999999999997}},
	} {
		got := SystemPower(tc.bytes, tc.tREFI, 3.1e9, 1.7e9, 2.3e7)
		if math.Float64bits(got.BackgroundW) != math.Float64bits(tc.want.BackgroundW) ||
			math.Float64bits(got.RefreshW) != math.Float64bits(tc.want.RefreshW) ||
			math.Float64bits(got.AccessW) != math.Float64bits(tc.want.AccessW) {
			t.Errorf("%d bytes @ %v s: %+v, want %+v", tc.bytes, tc.tREFI, got, tc.want)
		}
	}
}
