package dram

import (
	"fmt"
	"testing"

	"reaper/internal/checkpoint"
	"reaper/internal/patterns"
	"reaper/internal/rng"
)

// benchReadDevice builds the chip the read-path benchmarks use: large enough
// that a pass touches thousands of weak cells, matching the per-pass work of
// the experiment harnesses.
func benchReadDevice(b *testing.B) *Device {
	b.Helper()
	return testDevice(b, 7, func(c *Config) {
		c.Geometry = Geometry{Banks: 8, RowsPerBank: 256, WordsPerRow: 256}
		c.WeakScale = 30
	})
}

// BenchmarkReadCompareAll measures one full write/wait/read profiling pass —
// the innermost loop of every experiment in the repository. The 3-pattern
// cycle at a fixed cadence revisits sweep signatures, so from the fourth op
// on this measures the product path with the incremental round cache hot;
// BenchmarkReadCompareAllFresh is the cache-miss (full classification)
// counterpart.
func BenchmarkReadCompareAll(b *testing.B) {
	d := benchReadDevice(b)
	ps := []RowData{patterns.Solid1(), patterns.Checkerboard(), patterns.Random(1)}
	now := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.WriteAll(ps[i%len(ps)], now)
		now += 2.048
		fails := d.ReadCompareAll(now)
		now += 0.5
		_ = fails
	}
}

// BenchmarkReadCompareAllAutoRefresh measures the refresh-enabled read path,
// the multi-cycle stick-probability branch. Refresh runs every 512 ms and
// each read comes 2.048 s after its write, four refresh cycles later, so
// band cells are sampled; at the 64 ms JEDEC interval every weak cell lies
// past the activation cursor and an op is one cursor search. The first op
// runs before the timer and must sample a band cell.
func BenchmarkReadCompareAllAutoRefresh(b *testing.B) {
	d := benchReadDevice(b)
	d.SetAutoRefresh(0.512)
	now := 0.0
	op := func() {
		d.WriteAll(patterns.Checkerboard(), now)
		now += 2.048
		_ = d.ReadCompareAll(now)
		now += 0.5
	}
	sampled := d.IndexStats().Sampled
	op()
	if d.IndexStats().Sampled == sampled {
		b.Fatal("an op sampled no band cell: the stick-probability branch never ran")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkReadCompareAllFresh measures the full-classification sweep: a
// fresh random pattern every op defeats the round cache, so the per-op cost
// is the sparse-index cursor, per-candidate threshold tests, DPD hashes, and
// band sampling.
func BenchmarkReadCompareAllFresh(b *testing.B) {
	d := benchReadDevice(b)
	now := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.WriteAll(patterns.Random(uint64(i)), now)
		now += 2.048
		_ = d.ReadCompareAll(now)
		now += 0.5
	}
}

// BenchmarkReadCompareAllSteadyState measures the incremental fast path in
// isolation: a steady profiling cadence (same pattern, wait, and conditions
// every round) after one warm-up round, so every timed op replays a cached
// classification and only the sampling band draws.
func BenchmarkReadCompareAllSteadyState(b *testing.B) {
	d := benchReadDevice(b)
	pat := patterns.Checkerboard()
	now := 0.0
	d.WriteAll(pat, now)
	now += 2.048
	_ = d.ReadCompareAll(now)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.WriteAll(pat, now)
		now += 2.048
		_ = d.ReadCompareAll(now)
	}
	b.StopTimer()
	if d.IncrStats().FastSweeps == 0 {
		b.Fatal("steady-state benchmark never hit the round cache")
	}
}

// BenchmarkFig9Pass measures one Algorithm 1 pass on the fig9_grid chip (64
// Mbit, WeakScale 20, vendor B) at the +250 ms reach interval: a bulk write
// of a fresh random pattern, a refresh-paused wait that RestoreAll ends at
// 1.274 s, and ReadCompareAll. The fresh pattern misses the round cache, so
// every op classifies in full, stores a round entry and collects the stuck
// overlay that classification and sampling left in key order.
func BenchmarkFig9Pass(b *testing.B) {
	cfg := Config{Geometry: GeometryForBits(64 << 20), Vendor: VendorB(), Seed: 1, WeakScale: 20}
	for _, dt := range []float64{0, 10} {
		b.Run(fmt.Sprintf("+%gC", dt), func(b *testing.B) {
			d, err := NewDevice(cfg)
			if err != nil {
				b.Fatal(err)
			}
			d.SetTemperature(RefTempC + dt)
			now := 0.0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.WriteAll(patterns.Random(uint64(i)), now)
				now += 1.274
				d.RestoreAll(now)
				_ = d.ReadCompareAll(now)
			}
		})
	}
}

// BenchmarkNewDevice measures fleet-member construction from the analytic
// distributions: a 32 Mbit chip at WeakScale 100, the bench population chip
// (16 Mbit, WeakScale 30) once per vendor, and the fig9_grid chip (64 Mbit,
// WeakScale 20, vendor B). Op i builds seed i%8+1, so a run whose op count
// is a multiple of 8 does the same work at any count; pass a fixed
// -test.benchtime Nx to compare two builds.
func BenchmarkNewDevice(b *testing.B) {
	const seeds = 8
	build := func(b *testing.B, cfg Config) {
		b.ReportAllocs()
		cells := 0
		for i := 0; i < b.N; i++ {
			cfg.Seed = uint64(i%seeds + 1)
			d, err := NewDevice(cfg)
			if err != nil {
				b.Fatal(err)
			}
			cells += d.WeakCellCount()
		}
		b.ReportMetric(float64(cells)/float64(b.N), "cells/op")
	}
	b.Run("32mbit", func(b *testing.B) {
		build(b, Config{Geometry: Geometry{Banks: 8, RowsPerBank: 256, WordsPerRow: 256}, Vendor: VendorB(), WeakScale: 100})
	})
	for _, v := range Vendors() {
		b.Run("population/"+v.Name, func(b *testing.B) {
			build(b, Config{Geometry: GeometryForBits(16 << 20), Vendor: v, WeakScale: 30})
		})
	}
	b.Run("64mbit", func(b *testing.B) {
		build(b, Config{Geometry: GeometryForBits(64 << 20), Vendor: VendorB(), WeakScale: 20})
	})
}

// oracleSink keeps BenchmarkTrueFailingSet's result live.
var oracleSink []uint64

// BenchmarkTrueFailingSet measures the ground-truth oracle core.Truth runs
// once per population chip: the bench population chip (16 Mbit, WeakScale
// 30) at the population target (1024 ms, 45 C), one sub-benchmark per vendor.
func BenchmarkTrueFailingSet(b *testing.B) {
	for _, v := range Vendors() {
		b.Run(v.Name, func(b *testing.B) {
			d := testDevice(b, 500, func(c *Config) {
				c.Geometry = GeometryForBits(16 << 20)
				c.Vendor = v
				c.WeakScale = 30
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				oracleSink = d.TrueFailingSet(1.024, RefTempC, 0, OracleThreshold)
			}
			b.ReportMetric(float64(d.WeakCellCount()), "cells")
		})
	}
}

// BenchmarkRestoreAll measures a full refresh sweep without failure
// collection — RestoreAll used to pay ReadCompareAll's fails-slice
// allocation and sort just to discard them; the no-collect sweep pays
// neither.
func BenchmarkRestoreAll(b *testing.B) {
	d := benchReadDevice(b)
	ps := []RowData{patterns.Solid1(), patterns.Checkerboard(), patterns.Random(1)}
	now := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.WriteAll(ps[i%len(ps)], now)
		now += 2.048
		d.RestoreAll(now)
		now += 0.5
	}
}

// BenchmarkRollback measures returning a profiled 64 Mbit scale-model chip
// (the Fig 9/10 grid chip) to its construction savepoint — the per-point
// cost the tradeoff grid pays instead of constructing a new device.
func BenchmarkRollback(b *testing.B) {
	d := testDevice(b, 9, func(c *Config) {
		c.Geometry = GeometryForBits(64 << 20)
		c.WeakScale = 20
	})
	sp, err := d.Savepoint()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d.WriteAll(patterns.Random(uint64(i)), 0)
		_ = d.ReadCompareAll(2.048)
		b.StartTimer()
		if err := d.Rollback(sp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d.WeakCellCount()), "cells")
}

// benchSoakDevice builds the soak chip (8 Mbit, WeakScale 20): the device
// the scrub and checkpoint-restore benchmarks exercise.
func benchSoakDevice(b *testing.B) *Device {
	b.Helper()
	return testDevice(b, 11, func(c *Config) { c.Geometry = GeometryForBits(8 << 20) })
}

// readWordBlock is the number of reads BenchmarkReadWord replays from one
// state: each of the 96 resident words 10 times, over 0.96 s of simulated
// time.
const readWordBlock = 960

// BenchmarkReadWord measures a scrub-style word read: the 96 words a soak
// chip keeps resident, each overridden by a word write (so every row read
// is a deviant row), read back in address order as an ECC scrub pass does,
// 1 ms apart. What a read costs depends on how long ago its row was
// written, so every block of readWordBlock reads starts, untimed, from the
// same freshly written device: the work per op does not depend on b.N.
func BenchmarkReadWord(b *testing.B) {
	d := benchSoakDevice(b)
	sp, err := d.Savepoint()
	if err != nil {
		b.Fatal(err)
	}
	g := d.Geometry()
	type addr struct{ bank, row, word int }
	var resident []addr
	for i := 0; i < len(d.weak) && len(resident) < 96; i += len(d.weak) / 96 {
		a := g.AddrOf(d.weak[i].bit)
		resident = append(resident, addr{a.Bank, a.Row, a.Word})
	}
	var now float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%readWordBlock == 0 {
			b.StopTimer()
			if err := d.Rollback(sp); err != nil {
				b.Fatal(err)
			}
			d.WriteAll(patterns.Checkerboard(), 0)
			for _, a := range resident {
				if err := d.WriteWord(a.bank, a.row, a.word, ^uint64(0), 0); err != nil {
					b.Fatal(err)
				}
			}
			now = 1.0
			b.StartTimer()
		}
		a := resident[i%len(resident)]
		if _, err := d.ReadWord(a.bank, a.row, a.word, now); err != nil {
			b.Fatal(err)
		}
		now += 0.001
	}
}

// BenchmarkRestoreDelta measures replaying a soak chip's checkpoint delta
// carrying 2,048 injected cells into a freshly materialized device; the
// materialization itself is untimed.
func BenchmarkRestoreDelta(b *testing.B) {
	d := benchSoakDevice(b)
	d.InjectWeakCells(rng.New(1), 2048, 0, 0)
	e := checkpoint.NewEncoder()
	if err := d.EncodeDelta(e); err != nil {
		b.Fatal(err)
	}
	blob := e.Data()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh, err := d.Ref().Materialize()
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := fresh.RestoreDelta(checkpoint.NewDecoder(blob), resolvePattern); err != nil {
			b.Fatal(err)
		}
	}
}
