package perfmodel

import (
	"math"
	"testing"
	"time"
)

// RoundDuration returns RoundSeconds as a time.Duration.
func (c RoundConfig) RoundDuration() time.Duration {
	return time.Duration(c.RoundSeconds() * float64(time.Second))
}

func TestEquation9PaperAnchors(t *testing.T) {
	// Paper Section 7.3.1: "For 32 8Gb DRAM chips with T_REFI = 1024ms,
	// T_rd/wr = 0.125s (per 2GB, scaled), N_dp = 6, and N_it = 6, we find
	// T_profile ~= 3.01 minutes, and for 32 64Gb chips ~= 19.8 minutes."
	c8 := RoundConfig{
		TREFI: 1.024, NumPatterns: 6, NumIterations: 6,
		TotalBytes: 32 * (8 << 30) / 8, // 32 chips x 8 Gb = 32 GB
	}
	gotMin := c8.RoundSeconds() / 60
	if math.Abs(gotMin-3.01) > 0.03 {
		t.Errorf("32x8Gb round = %.3f min, want ~3.01", gotMin)
	}

	c64 := c8
	c64.TotalBytes = 32 * (64 << 30) / 8 // 256 GB
	gotMin = c64.RoundSeconds() / 60
	if math.Abs(gotMin-19.8) > 0.2 {
		t.Errorf("32x64Gb round = %.3f min, want ~19.8", gotMin)
	}
}

func TestFigure11Anchor(t *testing.T) {
	// Paper Figure 11: "for a profiling interval of 4 hours and a 64Gb
	// chip size, 22.7% of total system time is spent profiling with
	// brute-force profiling while 9.1% with REAPER" (16 iterations, 6
	// data patterns, 1024ms).
	brute := RoundConfig{
		TREFI: 1.024, NumPatterns: 6, NumIterations: 16,
		TotalBytes: 32 * (64 << 30) / 8,
	}
	bruteFrac := brute.OverheadFraction(4 * 3600)
	if math.Abs(bruteFrac-0.227) > 0.015 {
		t.Errorf("brute-force overhead at 4h = %.4f, want ~0.227", bruteFrac)
	}
	reaper := brute
	reaper.SpeedupFactor = 2.5
	reaperFrac := reaper.OverheadFraction(4 * 3600)
	if math.Abs(reaperFrac-0.091) > 0.006 {
		t.Errorf("REAPER overhead at 4h = %.4f, want ~0.091", reaperFrac)
	}
}

func TestSpeedupFactorSemantics(t *testing.T) {
	base := RoundConfig{TREFI: 1, NumPatterns: 6, NumIterations: 6, TotalBytes: 2 << 30}
	fast := base
	fast.SpeedupFactor = 2.5
	if r := base.RoundSeconds() / fast.RoundSeconds(); math.Abs(r-2.5) > 1e-9 {
		t.Errorf("speedup ratio = %v, want 2.5", r)
	}
	// Factor <= 1 is a no-op (including the zero default).
	slow := base
	slow.SpeedupFactor = 0.5
	if slow.RoundSeconds() != base.RoundSeconds() {
		t.Error("speedup < 1 should not slow the round down")
	}
}

func TestOverheadFractionBounds(t *testing.T) {
	c := RoundConfig{TREFI: 1.024, NumPatterns: 6, NumIterations: 16, TotalBytes: 256 << 30}
	if f := c.OverheadFraction(0); f != 1 {
		t.Errorf("zero interval overhead = %v, want 1", f)
	}
	if f := c.OverheadFraction(1); f != 1 {
		t.Errorf("interval shorter than round should cap at 1, got %v", f)
	}
	if f := c.OverheadFraction(1e12); f >= 0.001 {
		t.Errorf("huge interval overhead = %v, want ~0", f)
	}
}

func TestRealIPC(t *testing.T) {
	if got := RealIPC(2.0, 0.25); got != 1.5 {
		t.Errorf("RealIPC = %v, want 1.5", got)
	}
	if RealIPC(2.0, 0) != 2.0 {
		t.Error("zero overhead should preserve IPC")
	}
	if RealIPC(2.0, 1.5) != 0 {
		t.Error("overhead > 1 should clamp to zero IPC")
	}
	if RealIPC(2.0, -0.5) != 2.0 {
		t.Error("negative overhead should clamp")
	}
}

func TestRoundDuration(t *testing.T) {
	c := RoundConfig{TREFI: 1, NumPatterns: 1, NumIterations: 1, TotalBytes: 2 << 30}
	want := c.RoundSeconds()
	if got := c.RoundDuration().Seconds(); math.Abs(got-want) > 1e-9 {
		t.Errorf("RoundDuration = %v s, want %v", got, want)
	}
}

func TestCommands(t *testing.T) {
	c := RoundConfig{TREFI: 1, NumPatterns: 6, NumIterations: 2, TotalBytes: 1 << 20}
	cc := c.Commands(2048)
	if cc.BytesWritten != 12<<20 || cc.BytesRead != 12<<20 {
		t.Errorf("byte counts wrong: %+v", cc)
	}
	wantActs := int64(1<<20/2048) * 12 * 2
	if cc.RowActivations != wantActs {
		t.Errorf("activations = %d, want %d", cc.RowActivations, wantActs)
	}
}
