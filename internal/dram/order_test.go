package dram

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"reaper/internal/checkpoint"
	"reaper/internal/rng"
)

// This file pins the construction and oracle shortcuts to the plain
// algorithms they replace: TrueFailingSet's far-tail cut against the 16-code
// scan, the radix-sorted activation index against a comparison sort by (key,
// bit), and the row offsets against a filter of the weak population by row.

// scanTrueFailingSet is the 16-code reference oracle: every cell whose
// worst-case failure probability reaches threshold.
func scanTrueFailingSet(d *Device, tREFI, tempC, now, threshold float64) []uint64 {
	var out []uint64
	for _, c := range d.weak {
		if c.worstCaseFailProb(tREFI, tempC, &d.vend, now) >= threshold {
			out = append(out, c.bit)
		}
	}
	return out
}

// requireOracleMatchesScan compares TrueFailingSet with the reference scan
// at several conditions and thresholds: fixed ones on both sides of the
// far-tail cut's threshold floor, and each sampled cell's own worst-case
// probability and the next float above it, the two edges of its inclusion.
func requireOracleMatchesScan(t *testing.T, d *Device, now float64) {
	t.Helper()
	for _, cond := range []struct{ tREFI, tempC float64 }{{1.024, 45}, {2.048, 45}, {1.5, 55}} {
		var interior []float64
		for _, c := range d.weak {
			if p := c.worstCaseFailProb(cond.tREFI, cond.tempC, &d.vend, now); p > 0 && p < 1 {
				interior = append(interior, p)
			}
		}
		if len(interior) == 0 {
			t.Fatalf("tREFI %v tempC %v: no cell strictly inside (0, 1)", cond.tREFI, cond.tempC)
		}
		thresholds := []float64{0, 5e-5, farTailMinThreshold, math.Nextafter(farTailMinThreshold, 1), OracleThreshold, 0.5, 1}
		for i := 0; i < len(interior); i += max(1, len(interior)/6) {
			thresholds = append(thresholds, interior[i], math.Nextafter(interior[i], 1))
		}
		decided := 0
		for _, th := range thresholds {
			got := d.TrueFailingSet(cond.tREFI, cond.tempC, now, th)
			want := scanTrueFailingSet(d, cond.tREFI, cond.tempC, now, th)
			if !slices.Equal(got, want) {
				t.Fatalf("tREFI %v tempC %v now %v threshold %v: oracle %d cells, scan %d cells",
					cond.tREFI, cond.tempC, now, th, len(got), len(want))
			}
			if len(want) > 0 && len(want) < len(d.weak) {
				decided++
			}
		}
		if decided == 0 {
			t.Fatalf("tREFI %v tempC %v: no threshold split the population; the comparison is vacuous", cond.tREFI, cond.tempC)
		}
	}
}

// editOracleCells overwrites cells of d with the parameters a restored
// injected record could carry, and places three cells on the far-tail cut's
// edge at 1.024 s and 45 °C (where the temperature scale is 1): elapsed
// exactly base − 4σ and one ulp on either side. Each edited cell loses its
// VRT state, so its mean is its mu at any time.
func editOracleCells(t *testing.T, d *Device) {
	t.Helper()
	type edit struct{ mu, sigma, sens float64 }
	nan, inf := math.NaN(), math.Inf(1)
	edits := []edit{
		{nan, 0.1, 0}, {inf, 0.1, 0}, {-inf, 0.1, 0}, {0, 0.1, 0}, {-1, 0.1, 0},
		// The mean lies below every condition's elapsed time, so a
		// non-positive sigma's step CDF reads 1; with sigma -1 or -Inf the
		// cut would drop the cell if it did not require sigma > 0.
		{0.5, nan, 0}, {0.5, inf, 0}, {0.5, -inf, 0}, {0.5, 0, 0}, {0.5, -1, 0},
		// At 1.024 s the mean is far more than 4σ above elapsed, but a
		// negative sensitivity gives some codes a factor below 1/2, so the
		// cut must require dpdSens >= 0.
		{1.9, 0.01, -0.9}, {1.9, 0.01, nan}, {1.9, 0.01, inf},
	}
	const sigma = 0.0625
	for _, edge := range []float64{1.024, math.Nextafter(1.024, 0), math.Nextafter(1.024, 2)} {
		mu := edge + farTailSigmas*sigma
		if mu-farTailSigmas*sigma != edge {
			t.Fatalf("edge cell: %v - 4*%v != %v", mu, sigma, edge)
		}
		edits = append(edits, edit{mu, sigma, 0})
	}
	if d.vend.RetentionScale(45) != 1 {
		t.Fatal("temperature scale at 45 °C is not 1")
	}
	for k, e := range edits {
		c := d.weak[(k+1)*len(d.weak)/(len(edits)+1)]
		c.mu, c.sigma, c.dpdSens, c.vrt = e.mu, e.sigma, e.sens, nil
		if (e.sigma == -1 || e.sens < 0) && c.worstCaseFailProb(1.024, 45, &d.vend, 0) < OracleThreshold {
			t.Fatalf("edited cell %+v is not in the true set at 1.024 s; it cannot catch a weakened guard", e)
		}
	}
}

func TestTrueFailingSetMatchesScan(t *testing.T) {
	for _, v := range Vendors() {
		for _, seed := range []uint64{1, 7} {
			for _, dpd := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/seed%d/dpd=%v", v.Name, seed, dpd), func(t *testing.T) {
					d := testDevice(t, seed, func(c *Config) {
						c.Geometry = Geometry{Banks: 2, RowsPerBank: 64, WordsPerRow: 256}
						c.Vendor = v
						c.DisableDPD = !dpd
					})
					// now > 0 advances VRT cells between calls.
					requireOracleMatchesScan(t, d, 3600)
					src := rng.New(seed ^ 0xFA17)
					d.InjectWeakCells(src, 40, 2.0, 7200)
					if dpd && len(d.RescrambleDPD(src, 40)) == 0 {
						t.Fatal("no DPD cell to rescramble")
					}
					requireOracleMatchesScan(t, d, 36000)
					editOracleCells(t, d)
					requireOracleMatchesScan(t, d, 36000)
				})
			}
		}
	}
}

// referenceIndex is the activation order as a comparison sort gives it:
// ascending key, ties by ascending bit.
func referenceIndex(d *Device) ([]*weakCell, []float64) {
	cells := slices.Clone(d.weak)
	slices.SortFunc(cells, func(a, b *weakCell) int {
		return cmp.Or(cmp.Compare(activationKey(a), activationKey(b)), cmp.Compare(a.bit, b.bit))
	})
	keys := make([]float64, len(cells))
	for i, c := range cells {
		keys[i] = activationKey(c)
	}
	return cells, keys
}

func requireIndexMatchesReference(t *testing.T, label string, d *Device) {
	t.Helper()
	cells, keys := referenceIndex(d)
	if len(d.actCells) != len(cells) || len(d.actKeys) != len(keys) {
		t.Fatalf("%s: index has %d cells / %d keys, want %d", label, len(d.actCells), len(d.actKeys), len(cells))
	}
	for i := range cells {
		if d.actCells[i] != cells[i] {
			t.Fatalf("%s: index slot %d holds bit %d, want bit %d", label, i, d.actCells[i].bit, cells[i].bit)
		}
		if math.Float64bits(d.actKeys[i]) != math.Float64bits(keys[i]) {
			t.Fatalf("%s: key slot %d = %v, want %v", label, i, d.actKeys[i], keys[i])
		}
	}
}

func TestActivationIndexMatchesComparisonSort(t *testing.T) {
	d := testDevice(t, 31, nil)
	requireIndexMatchesReference(t, "construction", d)

	driveScript(d, rng.New(0x1D3), 0) // injects, bursts, rescrambles
	d.InjectWeakCells(rng.New(5), 30, 0, 100)
	requireIndexMatchesReference(t, "injection", d)

	e := checkpoint.NewEncoder()
	if err := d.EncodeDelta(e); err != nil {
		t.Fatal(err)
	}
	twin, err := d.Ref().Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.RestoreDelta(checkpoint.NewDecoder(e.Data()), resolvePattern); err != nil {
		t.Fatal(err)
	}
	requireIndexMatchesReference(t, "delta restore", twin)

	// Equal keys: give one cell another's (mu, sigma), then insert a third
	// cell with the same parameters between them, so two ties meet the
	// radix rebuild and one meets indexInsert.
	a, b := twin.weak[10], twin.weak[200]
	b.mu, b.sigma = a.mu, a.sigma
	twin.rebuildIndex()
	requireIndexMatchesReference(t, "forced tie", twin)
	bit := a.bit + 1
	for isWeakBit(twin, bit) {
		bit++
	}
	c := twin.allocCell()
	*c = weakCell{bit: bit, mu: a.mu, sigma: a.sigma, stuck: -1}
	i, _ := slices.BinarySearchFunc(twin.weak, bit, func(c *weakCell, bit uint64) int { return cmp.Compare(c.bit, bit) })
	twin.insertWeakCell(c, i)
	requireIndexMatchesReference(t, "inserted tie", twin)

	// What a corrupt restore could carry: NaN, infinite, negative, signed
	// zero and subnormal keys, some of them repeated.
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.NaN(), math.Copysign(0, -1)}
	for j, mu := range odd {
		c := twin.weak[50+7*j]
		c.mu, c.sigma = mu, 0
	}
	twin.rebuildIndex()
	requireIndexMatchesReference(t, "odd keys", twin)
}

func TestOrderKeyMatchesCmpCompare(t *testing.T) {
	const minNormal = 0x1p-1022 // the smallest positive normal float64
	negNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
	vals := []float64{
		math.NaN(), negNaN, math.Float64frombits(0x7FF0000000000001),
		math.Inf(-1), -math.MaxFloat64, -1.5, -1, -minNormal, -math.Float64frombits(0x000FFFFFFFFFFFFF),
		-math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, math.Float64frombits(0x000FFFFFFFFFFFFF), minNormal,
		1e-9, 0.25, 1, math.Nextafter(1, 2), math.MaxFloat64, math.Inf(1),
	}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := cmp.Compare(orderKey(a), orderKey(b)), cmp.Compare(a, b); got != want {
				t.Errorf("orderKey order of (%v, %v) = %d, cmp.Compare = %d", a, b, got, want)
			}
		}
	}
}

func TestRadixSortPairsStable(t *testing.T) {
	src := rng.New(9)
	for _, tc := range []struct {
		n    int
		mask uint64 // the key bits allowed to vary; the rest are shared
	}{
		{0, ^uint64(0)}, {1, ^uint64(0)}, {2, ^uint64(0)},
		{1000, ^uint64(0)},
		{1000, 0xFF << 24},  // one varying byte: an odd pass count
		{1000, 0x3 << 40},   // heavy ties
		{1000, 0xF0F0 << 8}, // two varying bytes, skipped ones between
	} {
		keys := make([]uint64, tc.n)
		vals := make([]uint32, tc.n)
		shared := src.Uint64() &^ tc.mask
		for i := range keys {
			keys[i] = shared | src.Uint64()&tc.mask
			vals[i] = uint32(i)
		}
		type pair struct {
			k uint64
			v uint32
		}
		want := make([]pair, tc.n)
		for i := range keys {
			want[i] = pair{keys[i], vals[i]}
		}
		slices.SortStableFunc(want, func(a, b pair) int { return cmp.Compare(a.k, b.k) })
		radixSortPairs(keys, vals, make([]uint64, tc.n), make([]uint32, tc.n))
		for i := range want {
			if keys[i] != want[i].k || vals[i] != want[i].v {
				t.Fatalf("n=%d mask=%#x: slot %d = (%#x, %d), want (%#x, %d)",
					tc.n, tc.mask, i, keys[i], vals[i], want[i].k, want[i].v)
			}
		}
	}
}

// requireRowCells checks the population is in strict bit order and that
// every row's offsets select exactly its cells.
func requireRowCells(t *testing.T, label string, d *Device) {
	t.Helper()
	rows := d.geom.TotalRows()
	if len(d.rowStart) != rows+1 || int(d.rowStart[rows]) != len(d.weak) {
		t.Fatalf("%s: %d row offsets ending at %d, want %d ending at %d",
			label, len(d.rowStart), d.rowStart[len(d.rowStart)-1], rows+1, len(d.weak))
	}
	for i := 1; i < len(d.weak); i++ {
		if d.weak[i-1].bit >= d.weak[i].bit {
			t.Fatalf("%s: weak population out of bit order at %d", label, i)
		}
	}
	for r := 0; r < rows; r++ {
		var want []*weakCell
		for _, c := range d.weak {
			if d.geom.rowOfBit(c.bit) == uint32(r) {
				want = append(want, c)
			}
		}
		if got := d.rowCells(uint32(r)); !slices.Equal(got, want) {
			t.Fatalf("%s: row %d has %d cells, want %d", label, r, len(got), len(want))
		}
	}
}

func TestRowCellsMatchFilter(t *testing.T) {
	// The subtest keeps the id that test history already records.
	t.Run("banked=false", func(t *testing.T) {
		d := testDevice(t, 41, nil)
		requireRowCells(t, "construction", d)

		driveScript(d, rng.New(0x40C), 0)
		src := rng.New(3)
		d.InjectWeakCells(src, 25, 0, 50)
		requireRowCells(t, "batch injection", d)
		// Cells at both ends of the device land in the first and last
		// rows, where the recount starts and ends.
		for _, bit := range []uint64{0, uint64(d.geom.TotalBits()) - 1} {
			d.InjectWeakCellAt(src, bit, 0, 50)
		}
		requireRowCells(t, "injection", d)

		e := checkpoint.NewEncoder()
		if err := d.EncodeDelta(e); err != nil {
			t.Fatal(err)
		}
		twin, err := d.Ref().Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if err := twin.RestoreDelta(checkpoint.NewDecoder(e.Data()), resolvePattern); err != nil {
			t.Fatal(err)
		}
		requireRowCells(t, "delta replay", twin)
	})
}

// TestInjectWeakCellsStopsWhenFull asks a 128-bit device for more weak
// cells than it has bits: injection must stop once every bit is weak. The
// call runs in a goroutine so that a hang fails the test instead of
// stalling the run.
func TestInjectWeakCellsStopsWhenFull(t *testing.T) {
	d := testDevice(t, 3, func(c *Config) {
		c.Geometry = Geometry{Banks: 1, RowsPerBank: 2, WordsPerRow: 1}
		c.WeakScale = 1
	})
	before := d.WeakCellCount()
	done := make(chan []uint64, 1)
	go func() { done <- d.InjectWeakCells(rng.New(1), 129, 0, 0) }()
	select {
	case bits := <-done:
		if len(bits) != 128-before || d.WeakCellCount() != 128 {
			t.Fatalf("injected %d cells onto %d weak; want %d injected and all 128 bits weak",
				len(bits), before, 128-before)
		}
		requireRowCells(t, "full device", d)
	case <-time.After(10 * time.Second):
		t.Fatal("InjectWeakCells did not return on a device with no free bits")
	}
}
