package dram

import (
	"slices"
	"testing"

	"reaper/internal/patterns"
	"reaper/internal/rng"
)

// driveIncrVsFull runs two devices with identical config and seed — one with
// the incremental round cache on (the default), one forced to reclassify in
// full every sweep — through a multi-round profiling script that revisits
// conditions (so the cache actually hits), steps temperature, grows the
// elapsed window, injects faults, and toggles auto-refresh. Every round must
// produce identical fail lists, disposition counters, and operation counters;
// at the end, per-cell stuck state and the seed-stream positions must agree,
// and the incremental device must have served a healthy share of its sweeps
// from cache (otherwise the test exercised nothing).
func driveIncrVsFull(t *testing.T, cfg Config, opSeed uint64) {
	t.Helper()
	inc, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full.SetRoundCache(false)
	if inc.WeakCellCount() == 0 {
		t.Fatal("degenerate test: no weak cells sampled")
	}

	ops := rng.New(opSeed)
	pats := []RowData{
		patterns.Solid1(),
		patterns.Checkerboard(),
		patterns.Random(opSeed),
	}
	now := 0.0
	round := 0
	read := func(n float64) {
		t.Helper()
		round++
		incF := inc.ReadCompareAll(n)
		fullF := full.ReadCompareAll(n)
		if !slices.Equal(incF, fullF) {
			t.Fatalf("round %d (now=%.3f): incremental fails %d, full fails %d\nincremental: %v\nfull:        %v",
				round, n, len(incF), len(fullF), incF, fullF)
		}
		if inc.IndexStats() != full.IndexStats() {
			t.Fatalf("round %d: index stats diverged: incremental %+v vs full %+v",
				round, inc.IndexStats(), full.IndexStats())
		}
	}
	writeAll := func(pat RowData) {
		inc.WriteAll(pat, now)
		full.WriteAll(pat, now)
	}

	// Phase 1: steady-state cadence — same pattern, wait, and conditions every
	// round. Round 1 classifies in full; rounds 2+ must hit the cache.
	writeAll(pats[0])
	for i := 0; i < 6; i++ {
		now += 2.048
		read(now)
		writeAll(pats[0])
	}

	// Phase 2: double reads without a refresh in between — the second read
	// replays a cached entry against a live stuck overlay (the Skipped
	// reconciliation path).
	for i := 0; i < 4; i++ {
		now += 2.048
		read(now)
		now += 2.048
		read(now)
		writeAll(pats[0])
	}

	// Phase 3: condition churn — temperature steps, pattern cycling,
	// auto-refresh toggles, elapsed-window growth. Revisited signatures hit;
	// fresh ones classify in full and populate the cache.
	temps := []float64{RefTempC, RefTempC + 10, RefTempC + 25}
	refs := []float64{0, 0.3}
	waits := []float64{0.512, 2.048, 5.5}
	for i := 0; i < 40; i++ {
		switch ops.Intn(6) {
		case 0:
			temp := temps[ops.Intn(len(temps))]
			inc.SetTemperature(temp)
			full.SetTemperature(temp)
		case 1:
			ar := refs[ops.Intn(len(refs))]
			inc.SetAutoRefresh(ar)
			full.SetAutoRefresh(ar)
		case 2: // injected cells join the dirty list and fold into live entries
			injSeed := ops.Uint64()
			iSrc, fSrc := rng.New(injSeed), rng.New(injSeed)
			iBits := inc.InjectWeakCells(iSrc, 2, 0, now)
			fBits := full.InjectWeakCells(fSrc, 2, 0, now)
			if !slices.Equal(iBits, fBits) {
				t.Fatalf("iteration %d: injection diverged", i)
			}
		case 3: // DPD rescramble is the invalidate-everything event
			injSeed := ops.Uint64()
			iSrc, fSrc := rng.New(injSeed), rng.New(injSeed)
			inc.RescrambleDPD(iSrc, 2)
			full.RescrambleDPD(fSrc, 2)
		case 4: // VRT forcing must NOT need invalidation (always band-classified)
			injSeed := ops.Uint64()
			iSrc, fSrc := rng.New(injSeed), rng.New(injSeed)
			inc.ForceVRTLowBurst(iSrc, 1, 0, now)
			full.ForceVRTLowBurst(fSrc, 1, 0, now)
		case 5: // partial write: deviant rows block both cache build and hit
			bank := ops.Intn(cfg.Geometry.Banks)
			row := ops.Intn(cfg.Geometry.RowsPerBank)
			val := ops.Uint64()
			word := ops.Intn(cfg.Geometry.WordsPerRow)
			if err := inc.WriteWord(bank, row, word, val, now); err != nil {
				t.Fatal(err)
			}
			if err := full.WriteWord(bank, row, word, val, now); err != nil {
				t.Fatal(err)
			}
		}
		now += waits[ops.Intn(len(waits))]
		read(now)
		if ops.Intn(3) != 0 {
			writeAll(pats[ops.Intn(len(pats))])
		}
	}

	for i := range inc.weak {
		if inc.weak[i].stuck != full.weak[i].stuck {
			t.Fatalf("cell %d (bit %d): incremental stuck=%d full stuck=%d",
				i, inc.weak[i].bit, inc.weak[i].stuck, full.weak[i].stuck)
		}
	}
	ir, ifl := inc.Stats()
	fr, ffl := full.Stats()
	if ir != fr || ifl != ffl {
		t.Fatalf("stats diverged: incremental (%d reads, %d flips) vs full (%d reads, %d flips)", ir, ifl, fr, ffl)
	}
	if s, f := inc.src.Uint64(), full.src.Uint64(); s != f {
		t.Fatalf("seed streams diverged: next draw %#x vs %#x", s, f)
	}
	ist, fst := inc.IncrStats(), full.IncrStats()
	if ist.FastSweeps == 0 {
		t.Fatalf("incremental device never hit the round cache: %+v", ist)
	}
	if fst.FastSweeps != 0 {
		t.Fatalf("cache-disabled device served sweeps from cache: %+v", fst)
	}
	if ist.FastSweeps+ist.FullSweeps != fst.FullSweeps {
		t.Fatalf("sweep accounting inconsistent: incremental %+v vs full %+v", ist, fst)
	}
}

// TestIncrementalMatchesFullResample is the core property test of incremental
// re-profiling: with the round cache on, every sweep must be byte-identical —
// fail lists, counters, stuck state, seed-stream position — to a device that
// reclassifies the whole population every round, through temperature steps,
// elapsed growth, fault injection, and auto-refresh toggles.
func TestIncrementalMatchesFullResample(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		driveIncrVsFull(t, sparseTestConfig(seed), seed*433)
	}
}

// TestIncrementalVRTHeavy keeps half the population switching retention
// states: VRT cells are always band-classified, so cached entries must stay
// valid across arbitrary state churn without any invalidation.
func TestIncrementalVRTHeavy(t *testing.T) {
	cfg := sparseTestConfig(3)
	cfg.Vendor.VRTFraction = 0.5
	cfg.Vendor.VRTDwellLowHours = 0.5
	cfg.Vendor.VRTDwellHighHours = 0.5
	driveIncrVsFull(t, cfg, 2741)
}

// TestRoundCacheOverflow drives more distinct sweep signatures than
// maxRoundEntries to cross the drop-everything overflow policy, then checks a
// revisited signature still replays correctly.
func TestRoundCacheOverflow(t *testing.T) {
	cfg := sparseTestConfig(6)
	inc, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full.SetRoundCache(false)
	now := 0.0
	pat := patterns.Checkerboard()
	inc.WriteAll(pat, now)
	full.WriteAll(pat, now)
	// maxRoundEntries+8 distinct elapsed values, then a revisit loop.
	wait := 0.5
	for i := 0; i < maxRoundEntries+8; i++ {
		now += wait
		wait += 0.01
		iF := inc.ReadCompareAll(now)
		fF := full.ReadCompareAll(now)
		if !slices.Equal(iF, fF) {
			t.Fatalf("signature %d diverged", i)
		}
		inc.WriteAll(pat, now)
		full.WriteAll(pat, now)
	}
	for i := 0; i < 4; i++ {
		now += 2.048
		iF := inc.ReadCompareAll(now)
		fF := full.ReadCompareAll(now)
		if !slices.Equal(iF, fF) {
			t.Fatalf("revisit %d diverged", i)
		}
		inc.WriteAll(pat, now)
		full.WriteAll(pat, now)
	}
	if s, f := inc.src.Uint64(), full.src.Uint64(); s != f {
		t.Fatalf("seed streams diverged after overflow: %#x vs %#x", s, f)
	}
	if inc.IncrStats().FastSweeps == 0 {
		t.Fatal("revisits never hit the cache after overflow")
	}
}
