package dram

import (
	"slices"
	"strings"
	"testing"

	"reaper/internal/checkpoint"
	"reaper/internal/patterns"
	"reaper/internal/rng"
)

// deltaTestConfig is the shared mid-campaign delta-codec fixture: small
// enough to drive quickly, big enough that the weak population dwarfs the
// divergence the delta records.
func deltaTestConfig() Config {
	return Config{
		Geometry:  Geometry{Banks: 8, RowsPerBank: 64, WordsPerRow: 256},
		Vendor:    VendorB(),
		Seed:      4242,
		WeakScale: 20,
	}
}

// TestDeltaEvictRematerializeTwin is the shard-eviction correctness
// property: "evict" a driven device — encode only its divergence delta, drop
// it, re-materialize a fresh device through its ChipRef handle (the path the
// fleet executor takes for a chip outside the active shard), and restore the
// delta. The re-materialized chip must match the never-evicted twin field by
// field, then stay in lockstep through a second driven segment.
func TestDeltaEvictRematerializeTwin(t *testing.T) {
	requireCheckpointTwin(t, deltaTestConfig(), func(orig *Device) (*Device, error) {
		return orig.Ref().Materialize()
	})
}

// TestDeltaRestoreGuards pins the delta codec's refusal paths: a target with
// prior divergence, a wrong-seed target, a wrong-geometry target, and a
// forced VRT cell scheduled to switch before time 0 must all fail loudly.
func TestDeltaRestoreGuards(t *testing.T) {
	cfg := deltaTestConfig()
	orig, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveScript(orig, rng.New(0x5EC1), 0)
	e := checkpoint.NewEncoder()
	if err := orig.EncodeDelta(e); err != nil {
		t.Fatal(err)
	}
	delta := e.Data()

	t.Run("diverged-target", func(t *testing.T) {
		d, err := NewDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.InjectWeakCells(rng.New(9), 1, 0, 0)
		err = d.RestoreDelta(checkpoint.NewDecoder(delta), resolvePattern)
		if err == nil || !strings.Contains(err.Error(), "prior divergence") {
			t.Fatalf("want prior-divergence refusal, got %v", err)
		}
	})
	t.Run("wrong-seed", func(t *testing.T) {
		other := cfg
		other.Seed = cfg.Seed + 1
		d, err := NewDevice(other)
		if err != nil {
			t.Fatal(err)
		}
		err = d.RestoreDelta(checkpoint.NewDecoder(delta), resolvePattern)
		if err == nil || !strings.Contains(err.Error(), "seed") {
			t.Fatalf("want seed mismatch, got %v", err)
		}
	})
	t.Run("vrt-switch-before-zero", func(t *testing.T) {
		// A sweep would spend ~1e300/dwell iterations catching this cell up.
		saved := orig.vrtForced[0].vrt.nextSwitch
		orig.vrtForced[0].vrt.nextSwitch = -1e300
		e := checkpoint.NewEncoder()
		err := orig.EncodeDelta(e)
		orig.vrtForced[0].vrt.nextSwitch = saved
		if err != nil {
			t.Fatal(err)
		}
		d, err := orig.Ref().Materialize()
		if err != nil {
			t.Fatal(err)
		}
		err = d.RestoreDelta(checkpoint.NewDecoder(e.Data()), resolvePattern)
		if err == nil || !strings.Contains(err.Error(), "switches at") {
			t.Fatalf("want a forced-VRT switch-time refusal, got %v", err)
		}
	})
	t.Run("injected-collision", func(t *testing.T) {
		// Each blob lists one injected record too many: a construction
		// cell's bit, or a bit another record already holds.
		injected := map[*weakCell]bool{}
		for _, c := range orig.injected {
			injected[c] = true
		}
		var base *weakCell
		for _, c := range orig.weak {
			if !injected[c] {
				base = c
				break
			}
		}
		n := len(orig.injected)
		for _, tc := range []struct {
			name  string
			extra *weakCell
		}{
			{"construction-cell", base},
			{"repeated-record", orig.injected[0]},
		} {
			t.Run(tc.name, func(t *testing.T) {
				orig.injected = append(orig.injected, tc.extra)
				e := checkpoint.NewEncoder()
				err := orig.EncodeDelta(e)
				orig.injected = orig.injected[:n]
				if err != nil {
					t.Fatal(err)
				}
				d, err := orig.Ref().Materialize()
				if err != nil {
					t.Fatal(err)
				}
				err = d.RestoreDelta(checkpoint.NewDecoder(e.Data()), resolvePattern)
				if err == nil || !strings.Contains(err.Error(), "collides") {
					t.Fatalf("want an injected-bit collision, got %v", err)
				}
			})
		}
	})
	t.Run("wrong-geometry", func(t *testing.T) {
		other := cfg
		other.Geometry.Banks = cfg.Geometry.Banks / 2
		d, err := NewDevice(other)
		if err != nil {
			t.Fatal(err)
		}
		err = d.RestoreDelta(checkpoint.NewDecoder(delta), resolvePattern)
		if err == nil || !strings.Contains(err.Error(), "geometry") {
			t.Fatalf("want geometry mismatch, got %v", err)
		}
	})
}

// corruptFixture builds the device whose delta blob the corruption tests
// damage: a small chip driven through driveScript that then rewrites one row
// and pokes one word, so the blob carries row records (explicit words and
// word overrides) next to round-cache entries, a dirty list and the stuck
// overlay.
func corruptFixture(tb testing.TB) (*Device, []byte) {
	tb.Helper()
	d, err := NewDevice(Config{
		Geometry:  Geometry{Banks: 2, RowsPerBank: 16, WordsPerRow: 32},
		Vendor:    VendorB(),
		Seed:      5,
		WeakScale: 20,
	})
	if err != nil {
		tb.Fatal(err)
	}
	driveScript(d, rng.New(1), 0)
	d.InjectWeakCells(rng.New(2), 3, 4.0, 39) // onto the dirty list of the live entries
	words := make([]uint64, d.geom.WordsPerRow)
	for i := range words {
		words[i] = 0xA5A5A5A5A5A5A5A5 ^ uint64(i)
	}
	if err := d.WriteRow(1, 3, words, 40); err != nil {
		tb.Fatal(err)
	}
	if err := d.WriteWord(0, 7, 5, 0xABCD, 41); err != nil {
		tb.Fatal(err)
	}
	if len(d.rows) == 0 || len(d.rounds) == 0 || len(d.dirtyCells) == 0 {
		tb.Fatalf("fixture lacks the state it must carry: %d rows, %d rounds, %d dirty cells",
			len(d.rows), len(d.rounds), len(d.dirtyCells))
	}
	e := checkpoint.NewEncoder()
	if err := d.EncodeDelta(e); err != nil {
		tb.Fatal(err)
	}
	return d, e.Data()
}

// injectedFixture builds a device on corruptFixture's Config whose delta
// replays over a thousand injected cells: driveScript's segment, then a
// batch injection dense enough that rows hold several injected cells, some
// before the row's first construction cell and some after its last, and a
// read that sticks failures into them.
func injectedFixture(tb testing.TB) (*Device, []byte) {
	tb.Helper()
	d, _ := corruptFixture(tb)
	d.InjectWeakCells(rng.New(0x1AC), 1200, 4.0, 42)
	d.WriteAll(patterns.Solid1(), 42)
	d.ReadCompareAll(43.024)
	e := checkpoint.NewEncoder()
	if err := d.EncodeDelta(e); err != nil {
		tb.Fatal(err)
	}
	return d, e.Data()
}

// TestDeltaRestoreManyInjected restores injectedFixture's delta, whose
// injected cells the replay merges into the construction population in one
// pass, into a re-materialized twin: it must match the never-evicted device
// field by field (EncodeDelta bytes included), then stay in lockstep
// through a driven segment.
func TestDeltaRestoreManyInjected(t *testing.T) {
	orig, blob := injectedFixture(t)
	if len(orig.injected) < 1000 {
		t.Fatalf("fixture injected %d cells, want >= 1000", len(orig.injected))
	}
	injected := map[*weakCell]bool{}
	for _, c := range orig.injected {
		injected[c] = true
	}
	var several, beforeFirst, afterLast int
	for r := range orig.geom.TotalRows() {
		cells := orig.rowCells(uint32(r))
		n, first, last := 0, -1, -1
		for i, c := range cells {
			if injected[c] {
				n++
				continue
			}
			if first < 0 {
				first = i
			}
			last = i
		}
		if n >= 2 {
			several++
		}
		if first > 0 {
			beforeFirst++
		}
		if last >= 0 && last < len(cells)-1 {
			afterLast++
		}
	}
	if several == 0 || beforeFirst == 0 || afterLast == 0 {
		t.Fatalf("fixture lacks a layout the merge must handle: %d rows with several injected cells, %d with one before the first construction cell, %d with one after the last",
			several, beforeFirst, afterLast)
	}
	twin, err := orig.Ref().Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.RestoreDelta(checkpoint.NewDecoder(blob), resolvePattern); err != nil {
		t.Fatal(err)
	}
	requireSameDevice(t, orig, twin)
	failsA := driveScript(orig, rng.New(0x3E6), 50)
	failsB := driveScript(twin, rng.New(0x3E6), 50)
	if !slices.Equal(failsA, failsB) {
		t.Fatalf("post-restore fail streams diverge: %d vs %d fails", len(failsA), len(failsB))
	}
	requireSameDevice(t, orig, twin)
}

// restoreAndUse restores blob into a fresh twin of d and, when the restore
// succeeds, runs what a resumed soak does next: a sweep over the restored
// rows, a bulk rewrite, a second sweep (a hit on the fixture's cached
// Solid1 round, which folds in the dirty list) and a re-encode. A corrupt
// blob must fail the restore or survive this sequence; a panic anywhere
// fails the caller. The ground-truth oracle must also match the 16-code
// scan on the restored device, whose injected records can carry any mu,
// sigma and dpdSens.
func restoreAndUse(tb testing.TB, d *Device, blob []byte) error {
	tb.Helper()
	fresh, err := d.Ref().Materialize()
	if err != nil {
		tb.Fatal(err)
	}
	if err := fresh.RestoreDelta(checkpoint.NewDecoder(blob), resolvePattern); err != nil {
		return err
	}
	fresh.ReadCompareAll(44.096)
	fresh.WriteAll(patterns.Solid1(), 44.096)
	fresh.ReadCompareAll(46.144)
	got := fresh.TrueFailingSet(1.024, 45, 46.144, OracleThreshold)
	if want := scanTrueFailingSet(fresh, 1.024, 45, 46.144, OracleThreshold); !slices.Equal(got, want) {
		tb.Fatalf("restored device: oracle %d cells, scan %d cells", len(got), len(want))
	}
	if err := fresh.EncodeDelta(checkpoint.NewEncoder()); err != nil {
		tb.Fatalf("re-encoding a restored device: %v", err)
	}
	return nil
}

// TestDeltaRestoreCorrupt feeds damaged delta blobs to RestoreDelta, the
// restore every resumed soak runs on bytes read back from disk: every
// truncation of a driven device's blob must return an error, and seeded
// single-bit flips must fail the restore or leave a device that sweeps,
// rewrites and re-encodes without panicking. No count may size an
// allocation from corrupt bytes.
func TestDeltaRestoreCorrupt(t *testing.T) {
	d, blob := corruptFixture(t)
	if err := restoreAndUse(t, d, blob); err != nil {
		t.Fatalf("intact blob: %v", err)
	}
	for cut := 0; cut < len(blob); cut++ {
		if restoreAndUse(t, d, blob[:cut]) == nil {
			t.Fatalf("truncation at %d of %d bytes not detected", cut, len(blob))
		}
	}
	flips := rng.New(0xF11B)
	mutant := make([]byte, len(blob))
	for i := 0; i < 3000; i++ {
		copy(mutant, blob)
		bit := flips.Intn(8 * len(blob))
		mutant[bit/8] ^= 1 << (bit % 8)
		_ = restoreAndUse(t, d, mutant) // an error is fine; a panic fails the test
	}
}

// FuzzRestoreDelta fuzzes the same property from the corruption fixture's
// blob and injectedFixture's (same Config): any byte string must fail
// RestoreDelta or restore a device that survives restoreAndUse's
// sweep-and-encode sequence and oracle check. Plain go test runs the seed
// corpus; make fuzz-quick mutates it.
func FuzzRestoreDelta(f *testing.F) {
	d, blob := corruptFixture(f)
	f.Add(blob)
	_, many := injectedFixture(f)
	f.Add(many)
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = restoreAndUse(t, d, data)
	})
}

// TestChipRefMaterialize pins the handle's contract: a ref is a pure
// function of Config, materializes to a device identical to direct
// construction, and rejects invalid configs eagerly.
func TestChipRefMaterialize(t *testing.T) {
	cfg := deltaTestConfig()
	ref, err := NewChipRef(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Seed() != cfg.Seed {
		t.Fatalf("ref seed %d, want %d", ref.Seed(), cfg.Seed)
	}
	a, err := ref.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSameDevice(t, a, b)
	if _, err := NewChipRef(Config{}); err == nil {
		t.Fatal("NewChipRef accepted an invalid config")
	}
}
