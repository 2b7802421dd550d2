package memctrl

import (
	"math"
	"testing"

	"reaper/internal/dram"
	"reaper/internal/patterns"
	"reaper/internal/thermal"
)

func testStation(t *testing.T, chamber bool) *Station {
	t.Helper()
	dev, err := dram.NewDevice(dram.Config{
		Geometry:  dram.Geometry{Banks: 8, RowsPerBank: 64, WordsPerRow: 256},
		Vendor:    dram.VendorB(),
		Seed:      7,
		WeakScale: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ch *thermal.Chamber
	if chamber {
		ch = thermal.NewChamber(1)
		ch.SettleTo(45, 0.25, 3600)
	}
	st, err := NewStation(ch, dev)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// RefreshEnabled reports whether auto-refresh is running.
func (s *Station) RefreshEnabled() bool { return s.refresh }

// ResetStats zeroes the time accounting (the clock keeps running).
func (s *Station) ResetStats() { s.stats = Stats{} }

func TestClockMonotonic(t *testing.T) {
	var c Clock
	c.Advance(1.5)
	c.Advance(0)
	if c.Now() != 1.5 {
		t.Errorf("Now = %v", c.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("negative Advance did not panic")
		}
	}()
	c.Advance(-1)
}

func TestDefaultTimingMatchesPaperAnchor(t *testing.T) {
	// Paper: a full read or write pass over 2GB takes ~0.125s.
	got := PassSeconds(2 << 30)
	if math.Abs(got-0.125) > 1e-9 {
		t.Errorf("2GB pass = %v s, want 0.125", got)
	}
	// And it must scale linearly with capacity (the paper scales the
	// 0.125s figure by DRAM size).
	if r := PassSeconds(64<<30) / got; math.Abs(r-32) > 1e-9 {
		t.Errorf("capacity scaling = %v, want 32", r)
	}
	// LPDDR4-3200 with 4 x16 channels peaks at 4 x 2 bytes x 3200 MT/s.
	if eff := passBytesPerSecond / (4 * 2 * 3200e6); eff <= 0 || eff > 1 {
		t.Errorf("implied efficiency %v out of range", eff)
	}
	if DefaultTREFI != 0.064 {
		t.Errorf("default tREFI = %v s, want the JEDEC 64 ms", DefaultTREFI)
	}
}

func TestAlgorithm1LoopAccounting(t *testing.T) {
	st := testStation(t, false)
	bytes := st.Device().Geometry().TotalBytes()
	pass := PassSeconds(bytes)

	p := patterns.Checkerboard()
	st.DisableRefresh()
	st.WritePattern(p)
	st.Wait(2.048)
	fails := st.ReadCompare()
	st.EnableRefresh()

	if len(fails) == 0 {
		t.Error("no failures at 2048ms")
	}
	stats := st.Stats()
	if math.Abs(stats.WriteSeconds-pass) > 1e-12 || stats.WritePasses != 1 {
		t.Errorf("write accounting wrong: %+v", stats)
	}
	if math.Abs(stats.ReadSeconds-pass) > 1e-12 || stats.ReadPasses != 1 {
		t.Errorf("read accounting wrong: %+v", stats)
	}
	if math.Abs(stats.WaitSeconds-2.048) > 1e-12 {
		t.Errorf("wait accounting wrong: %+v", stats)
	}
	if stats.BytesWritten != bytes || stats.BytesRead != bytes {
		t.Errorf("byte accounting wrong: %+v", stats)
	}
	wantTotal := 2*pass + 2.048
	if math.Abs(stats.Total()-wantTotal) > 1e-9 {
		t.Errorf("Total = %v, want %v", stats.Total(), wantTotal)
	}
	if math.Abs(st.Clock()-wantTotal) > 1e-9 {
		t.Errorf("clock = %v, want %v", st.Clock(), wantTotal)
	}
}

func TestRefreshProtectsDuringEnabledWait(t *testing.T) {
	st := testStation(t, false)
	st.WritePattern(patterns.Random(3))
	st.Wait(2.048) // refresh enabled: no retention loss
	if fails := st.ReadCompare(); len(fails) != 0 {
		t.Errorf("%d failures despite refresh being enabled", len(fails))
	}
	stats := st.Stats()
	if stats.IdleSeconds < 2 || stats.WaitSeconds != 0 {
		t.Errorf("enabled-refresh wait misclassified: %+v", stats)
	}
}

func TestDisableEnableRefresh(t *testing.T) {
	st := testStation(t, false)
	if !st.RefreshEnabled() {
		t.Error("refresh should start enabled")
	}
	st.DisableRefresh()
	if st.RefreshEnabled() || st.Device().AutoRefresh() != 0 {
		t.Error("DisableRefresh did not take")
	}
	st.EnableRefresh()
	if !st.RefreshEnabled() || st.Device().AutoRefresh() != DefaultTREFI {
		t.Error("EnableRefresh did not restore default interval")
	}
}

func TestSetRefreshInterval(t *testing.T) {
	st := testStation(t, false)
	st.SetRefreshInterval(0.512)
	if !st.RefreshEnabled() || st.Device().AutoRefresh() != 0.512 {
		t.Error("SetRefreshInterval(0.512) did not take")
	}
	st.SetRefreshInterval(0)
	if st.RefreshEnabled() {
		t.Error("SetRefreshInterval(0) should disable refresh")
	}
}

func TestWaitZeroOrNegativeIsNoOp(t *testing.T) {
	st := testStation(t, false)
	before := st.Clock()
	st.Wait(0)
	st.Wait(-5)
	if st.Clock() != before {
		t.Error("zero/negative wait advanced the clock")
	}
}

func TestSetAmbientWithoutChamberIsInstant(t *testing.T) {
	st := testStation(t, false)
	before := st.Clock()
	got := st.SetAmbient(55)
	if got != 55 || st.Ambient() != 55 {
		t.Errorf("SetAmbient = %v, ambient = %v", got, st.Ambient())
	}
	if st.Clock() != before {
		t.Error("chamberless SetAmbient consumed time")
	}
}

func TestSetAmbientWithChamberSettles(t *testing.T) {
	st := testStation(t, true)
	before := st.Clock()
	st.SetAmbient(50)
	if st.Clock() == before {
		t.Error("chamber settle consumed no simulated time")
	}
	if math.Abs(st.Ambient()-50) > 0.6 {
		t.Errorf("ambient after settle = %v, want ~50", st.Ambient())
	}
	if st.Stats().IdleSeconds <= 0 {
		t.Error("settle time not charged as idle")
	}
}

func TestChamberCouplingAffectsFailures(t *testing.T) {
	st := testStation(t, true)
	count := func() int {
		total := 0
		for i := 0; i < 4; i++ {
			st.DisableRefresh()
			st.WritePattern(patterns.Random(uint64(i)))
			st.Wait(1.024)
			total += len(st.ReadCompare())
			st.EnableRefresh()
		}
		return total
	}
	at45 := count()
	st.SetAmbient(55)
	at55 := count()
	if at55 <= at45*3 {
		t.Errorf("chamber temperature had too little effect: %d @45C vs %d @55C", at45, at55)
	}
}

func TestResetStats(t *testing.T) {
	st := testStation(t, false)
	st.WritePattern(patterns.Solid0())
	st.ResetStats()
	if st.Stats().Total() != 0 {
		t.Error("ResetStats did not zero accounting")
	}
	if st.Clock() == 0 {
		t.Error("ResetStats must not reset the clock")
	}
}
