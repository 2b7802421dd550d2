package dram

import (
	"testing"

	"reaper/internal/checkpoint"
	"reaper/internal/patterns"
	"reaper/internal/rng"
)

// This file pins the order contract of the sort-free sweep path: every
// cell's rank is its index in the bit-ordered population after each change
// to that population, and the rank bitmaps hand out collected fails and
// round-entry flips and bands in strictly ascending bit order.

// requireRanks fails unless every weak cell's rank is its index in d.weak.
func requireRanks(t *testing.T, label string, d *Device) {
	t.Helper()
	for i, c := range d.weak {
		if c.rank != uint32(i) {
			t.Fatalf("%s: cell %d (bit %d) has rank %d", label, i, c.bit, c.rank)
		}
	}
}

// bitOrderStats counts what the order checks saw, so a run that never
// produced fails, flips or bands fails as vacuous.
type bitOrderStats struct{ fails, flips, band int }

// requireSweepOrder fails unless fails, and the flips and band of every
// stored round entry, are strictly ascending by bit.
func requireSweepOrder(t *testing.T, label string, d *Device, fails []uint64, seen *bitOrderStats) {
	t.Helper()
	for i := 1; i < len(fails); i++ {
		if fails[i] <= fails[i-1] {
			t.Fatalf("%s: fail %d is bit %d after bit %d", label, i, fails[i], fails[i-1])
		}
	}
	seen.fails += len(fails)
	for _, e := range d.rounds {
		for i := 1; i < len(e.flips); i++ {
			if e.flips[i].c.bit <= e.flips[i-1].c.bit {
				t.Fatalf("%s: entry flip %d is bit %d after bit %d", label, i, e.flips[i].c.bit, e.flips[i-1].c.bit)
			}
		}
		for i := 1; i < len(e.band); i++ {
			if e.band[i].bit <= e.band[i-1].bit {
				t.Fatalf("%s: entry band cell %d is bit %d after bit %d", label, i, e.band[i].bit, e.band[i-1].bit)
			}
		}
		seen.flips += len(e.flips)
		seen.band += len(e.band)
	}
}

// TestSweepOutputsInBitOrder drives fresh and cached rounds, second reads
// over a live stuck overlay, RestoreAll-then-read passes, auto-refresh,
// cells injected after round entries exist, deviant rows and a delta
// restore, on a default and a VRT-heavy population. Every collecting
// sweep's fails and every stored entry must be in strictly ascending bit
// order, and ranks must match the population after construction,
// Rollback, InjectWeakCellAt, InjectWeakCells and RestoreDelta.
func TestSweepOutputsInBitOrder(t *testing.T) {
	vrtHeavy := sparseTestConfig(3)
	vrtHeavy.Vendor.VRTFraction = 0.5
	vrtHeavy.Vendor.VRTDwellLowHours = 0.5
	vrtHeavy.Vendor.VRTDwellHighHours = 0.5
	for _, cfg := range []Config{sparseTestConfig(5), vrtHeavy} {
		d, err := NewDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireRanks(t, "construction", d)
		sp, err := d.Savepoint()
		if err != nil {
			t.Fatal(err)
		}
		var seen bitOrderStats
		now := 0.0
		read := func(label string, dev *Device) {
			t.Helper()
			requireSweepOrder(t, label, dev, dev.ReadCompareAll(now), &seen)
		}
		pats := []RowData{patterns.Solid1(), patterns.Checkerboard(), patterns.Random(cfg.Seed)}

		// Fresh rounds, then cached replays of the same signatures. The
		// second read of each pair runs over the first one's stuck overlay.
		for round := 0; round < 6; round++ {
			d.WriteAll(pats[round%len(pats)], now)
			now += 2.048
			read("first read", d)
			now += 2.048
			read("second read", d)
		}
		if err := d.Rollback(sp); err != nil {
			t.Fatal(err)
		}
		requireRanks(t, "Rollback", d)

		// Algorithm 1 passes: RestoreAll ends the wait, leaving the stuck
		// overlay in classification order for ReadCompareAll to report.
		for i := 0; i < 6; i++ {
			d.WriteAll(pats[i%len(pats)], now)
			now += 2.5
			d.RestoreAll(now)
			read("restore then read", d)
		}

		d.SetAutoRefresh(0.3)
		for i := 0; i < 4; i++ {
			d.WriteAll(pats[i%len(pats)], now)
			now += 5.5
			read("auto-refresh", d)
		}
		d.SetAutoRefresh(0)

		// Cells injected after round entries exist: one at a time, then a
		// batch. The cached signature then folds them into its entry.
		d.WriteAll(pats[0], now)
		now += 2.048
		read("before injection", d)
		if len(d.rounds) == 0 {
			t.Fatal("no round entry before injection")
		}
		ops := rng.New(cfg.Seed * 131)
		for injected := 0; injected < 8; {
			if d.InjectWeakCellAt(ops, ops.Uint64n(uint64(d.geom.TotalBits())), 2, now) {
				injected++
			}
		}
		requireRanks(t, "InjectWeakCellAt", d)
		d.InjectWeakCells(ops, 40, 2, now)
		requireRanks(t, "InjectWeakCells", d)
		d.WriteAll(pats[0], now)
		now += 2.048
		read("cached after injection", d)

		// Deviant rows: a row write and word writes, read twice.
		words := make([]uint64, cfg.Geometry.WordsPerRow)
		for w := range words {
			words[w] = ops.Uint64()
		}
		if err := d.WriteRow(1, 3, words, now); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := d.WriteWord(ops.Intn(cfg.Geometry.Banks), ops.Intn(cfg.Geometry.RowsPerBank), ops.Intn(cfg.Geometry.WordsPerRow), ops.Uint64(), now); err != nil {
				t.Fatal(err)
			}
		}
		now += 2.048
		read("deviant rows", d)
		now += 2.048
		read("deviant rows, second read", d)

		// A delta restore replays the injected records into a fresh twin.
		enc := checkpoint.NewEncoder()
		if err := d.EncodeDelta(enc); err != nil {
			t.Fatal(err)
		}
		twin, err := d.Ref().Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if err := twin.RestoreDelta(checkpoint.NewDecoder(enc.Data()), resolvePattern); err != nil {
			t.Fatal(err)
		}
		requireRanks(t, "RestoreDelta", twin)
		now += 2.048
		read("restored twin", twin)
		twin.WriteAll(pats[0], now)
		now += 2.048
		read("restored twin, rewritten", twin)

		if seen.fails == 0 || seen.flips == 0 || seen.band == 0 {
			t.Fatalf("seed %d: vacuous run: %+v", cfg.Seed, seen)
		}
	}
}
