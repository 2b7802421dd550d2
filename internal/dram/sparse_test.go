package dram

import (
	"slices"
	"testing"

	"reaper/internal/patterns"
	"reaper/internal/rng"
)

// denseReadCompareAll is the pre-index reference implementation of
// ReadCompareAll, kept as the oracle the sparse active-window path
// must match bit-for-bit: walk every weak cell in bit order (hoisting the
// row-state lookup to row boundaries) and run sampleReadBit on each. Any
// divergence in fails, stuck state, or seed-stream position between this
// walk and Device.sweep is a sparse-path bug.
func denseReadCompareAll(d *Device, now float64) []uint64 {
	var fails []uint64
	var (
		curRow     uint32
		curOverr   map[int]uint64
		restoredAt float64
		haveRow    bool
	)
	for _, c := range d.weak {
		row := d.geom.rowOfBit(c.bit)
		if !haveRow || row != curRow {
			curRow, haveRow = row, true
			restoredAt, curOverr = d.bulkTime, nil
			if rs := d.rows[row]; rs != nil {
				restoredAt, curOverr = rs.restoredAt, rs.overrides
			}
		}
		a := d.geom.AddrOf(c.bit)
		w := d.bulkData.Word(row, a.Word)
		if curOverr != nil {
			if v, ok := curOverr[a.Word]; ok {
				w = v
			}
		}
		written := uint8(w >> uint(a.Bit) & 1)
		got := d.sampleReadBit(c, written, now, restoredAt)
		if got != written {
			fails = append(fails, c.bit)
		}
	}
	d.bulkTime = now
	for _, rs := range d.rows {
		rs.restoredAt = now
	}
	d.readsDone++
	slices.Sort(fails)
	return fails
}

// driveSparseVsDense runs one sparse device and one dense-reference device
// (identical config and seed) through an identical randomized operation
// script — pattern rewrites, temperature moves, auto-refresh toggles,
// partial writes and reads, fault injection — comparing
// every read-compare result bit-for-bit, and finally comparing per-cell
// stuck state, operation counters, and the devices' seed-stream positions.
func driveSparseVsDense(t *testing.T, cfg Config, tempC float64, opSeed uint64, passes int) {
	t.Helper()
	sparse, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sparse.SetTemperature(tempC)
	dense.SetTemperature(tempC)
	if sparse.WeakCellCount() == 0 {
		t.Fatal("degenerate test: no weak cells sampled")
	}

	ops := rng.New(opSeed)
	pats := []RowData{
		patterns.Solid1(),
		patterns.Checkerboard(),
		patterns.Random(opSeed),
		patterns.Invert(patterns.Random(opSeed + 1)),
	}
	waits := []float64{0.01, 0.128, 0.7, 2.048, 5.5}
	refs := []float64{0, 0.064, 0.3}

	now := 0.0
	sparse.WriteAll(pats[0], now)
	dense.WriteAll(pats[0], now)

	for p := 0; p < passes; p++ {
		switch ops.Intn(8) {
		case 0: // ambient temperature move
			temp := RefTempC + float64(ops.Intn(31)) - 5
			sparse.SetTemperature(temp)
			dense.SetTemperature(temp)
		case 1: // auto-refresh reconfiguration
			ar := refs[ops.Intn(len(refs))]
			sparse.SetAutoRefresh(ar)
			dense.SetAutoRefresh(ar)
		case 2: // full-row rewrite
			bank := ops.Intn(cfg.Geometry.Banks)
			row := ops.Intn(cfg.Geometry.RowsPerBank)
			words := make([]uint64, cfg.Geometry.WordsPerRow)
			fill := ops.Uint64()
			for i := range words {
				words[i] = fill
			}
			if err := sparse.WriteRow(bank, row, words, now); err != nil {
				t.Fatal(err)
			}
			if err := dense.WriteRow(bank, row, words, now); err != nil {
				t.Fatal(err)
			}
		case 3: // single-word write (row activation restores the row)
			bank := ops.Intn(cfg.Geometry.Banks)
			row := ops.Intn(cfg.Geometry.RowsPerBank)
			word := ops.Intn(cfg.Geometry.WordsPerRow)
			val := ops.Uint64()
			if err := sparse.WriteWord(bank, row, word, val, now); err != nil {
				t.Fatal(err)
			}
			if err := dense.WriteWord(bank, row, word, val, now); err != nil {
				t.Fatal(err)
			}
		case 4: // row readback must agree too
			bank := ops.Intn(cfg.Geometry.Banks)
			row := ops.Intn(cfg.Geometry.RowsPerBank)
			sw, err := sparse.ReadRow(bank, row, now)
			if err != nil {
				t.Fatal(err)
			}
			dw, err := dense.ReadRow(bank, row, now)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(sw, dw) {
				t.Fatalf("pass %d: ReadRow(%d,%d) diverged", p, bank, row)
			}
		case 5: // bulk pattern rewrite
			pat := pats[ops.Intn(len(pats))]
			sparse.WriteAll(pat, now)
			dense.WriteAll(pat, now)
		case 6: // refresh sweep without collection
			sparse.RestoreAll(now)
			denseReadCompareAll(dense, now)
		case 7: // fault injection: new cells, VRT forcing, DPD reshuffle
			injSeed := ops.Uint64()
			sSrc, dSrc := rng.New(injSeed), rng.New(injSeed)
			sBits := sparse.InjectWeakCells(sSrc, 2, 0, now)
			dBits := dense.InjectWeakCells(dSrc, 2, 0, now)
			if !slices.Equal(sBits, dBits) {
				t.Fatalf("pass %d: injection diverged", p)
			}
			sparse.ForceVRTLowBurst(sSrc, 1, 0, now)
			dense.ForceVRTLowBurst(dSrc, 1, 0, now)
			sparse.RescrambleDPD(sSrc, 3)
			dense.RescrambleDPD(dSrc, 3)
		}

		now += waits[ops.Intn(len(waits))]
		sf := sparse.ReadCompareAll(now)
		df := denseReadCompareAll(dense, now)
		if !slices.Equal(sf, df) {
			t.Fatalf("pass %d (now=%.3f): sparse fails %d, dense fails %d\nsparse: %v\ndense:  %v",
				p, now, len(sf), len(df), sf, df)
		}
	}

	for i := range sparse.weak {
		if sparse.weak[i].stuck != dense.weak[i].stuck {
			t.Fatalf("cell %d (bit %d): sparse stuck=%d dense stuck=%d",
				i, sparse.weak[i].bit, sparse.weak[i].stuck, dense.weak[i].stuck)
		}
	}
	sr, sfl := sparse.Stats()
	dr, dfl := dense.Stats()
	if sr != dr || sfl != dfl {
		t.Fatalf("stats diverged: sparse (%d reads, %d flips) vs dense (%d reads, %d flips)", sr, sfl, dr, dfl)
	}
	// Strongest check: both devices must have consumed exactly the same
	// number of draws from their seed streams, so the next raw value agrees.
	if s, d := sparse.src.Uint64(), dense.src.Uint64(); s != d {
		t.Fatalf("seed streams diverged: next draw %#x vs %#x", s, d)
	}
}

func sparseTestConfig(seed uint64) Config {
	return Config{
		Geometry:  Geometry{Banks: 4, RowsPerBank: 32, WordsPerRow: 64},
		Vendor:    VendorB(),
		Seed:      seed,
		WeakScale: 20,
	}
}

// TestSparseMatchesDenseReference is the core property test of the sparse
// active-window read path: across seeds, temperatures, data patterns,
// auto-refresh settings, partial writes and fault injection, ReadCompareAll
// must be bit-for-bit and draw-for-draw identical to the dense per-cell walk.
func TestSparseMatchesDenseReference(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := sparseTestConfig(seed)
		driveSparseVsDense(t, cfg, RefTempC, seed*977, 30)
	}
}

// TestSparseMatchesDenseVRTHeavy stresses the VRT slow-path routing and the
// deferred-advance argument: half the population switches retention states.
func TestSparseMatchesDenseVRTHeavy(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := sparseTestConfig(seed)
		cfg.Vendor.VRTFraction = 0.5
		cfg.Vendor.VRTDwellLowHours = 0.5
		cfg.Vendor.VRTDwellHighHours = 0.5
		driveSparseVsDense(t, cfg, RefTempC, seed*1237, 30)
	}
}

// TestSparseMatchesDenseHotAndCold covers the temperature-scale edges of the
// binary-search predicate, where every cell is active (hot) or almost none
// are (cold).
func TestSparseMatchesDenseHotAndCold(t *testing.T) {
	for _, temp := range []float64{25, 85} {
		driveSparseVsDense(t, sparseTestConfig(11), temp, uint64(temp)*31, 25)
	}
}

// TestSparseMatchesDenseNoDPD exercises the ablation configuration where
// every dpdFactor is exactly 1 and the key margin is the only slack between
// the index key and the exact threshold.
func TestSparseMatchesDenseNoDPD(t *testing.T) {
	cfg := sparseTestConfig(5)
	cfg.DisableDPD = true
	driveSparseVsDense(t, cfg, RefTempC, 4242, 30)
}

// TestIndexSkipsFastAutoRefresh pins the headline win: under the default
// 64 ms auto-refresh the whole weak population (min retention 256 ms) is
// deterministically safe, so a sweep must classify zero cells and consume
// zero draws.
func TestIndexSkipsFastAutoRefresh(t *testing.T) {
	d, err := NewDevice(sparseTestConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoRefresh(0.064)
	d.WriteAll(patterns.Checkerboard(), 0)
	if fails := d.ReadCompareAll(10.0); len(fails) != 0 {
		t.Fatalf("fast auto-refresh sweep reported %d fails", len(fails))
	}
	st := d.IndexStats()
	if st.Sampled != 0 || st.Flipped != 0 || st.Slowpath != 0 {
		t.Fatalf("fast auto-refresh sweep touched cells: %+v", st)
	}
	if st.Skipped != uint64(d.WeakCellCount()) {
		t.Fatalf("Skipped = %d, want whole population %d", st.Skipped, d.WeakCellCount())
	}
}

// TestIndexStatsAccounting checks the disposition counters cover the whole
// population on a bulk-state sweep and accumulate monotonically.
func TestIndexStatsAccounting(t *testing.T) {
	d, err := NewDevice(sparseTestConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	d.WriteAll(patterns.Solid1(), 0)
	_ = d.ReadCompareAll(2.048)
	st := d.IndexStats()
	if got, want := st.Skipped+st.Flipped+st.Sampled, uint64(d.WeakCellCount()); got != want {
		t.Fatalf("first-sweep dispositions sum to %d, want population %d (%+v)", got, want, st)
	}
	_ = d.ReadCompareAll(4.096)
	st2 := d.IndexStats()
	if st2.Skipped < st.Skipped || st2.Sampled < st.Sampled || st2.Flipped < st.Flipped {
		t.Fatalf("counters regressed: %+v -> %+v", st, st2)
	}
}
