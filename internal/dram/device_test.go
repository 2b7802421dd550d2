package dram

import (
	"math"
	"testing"

	"reaper/internal/patterns"
)

// Stats returns simple operation counters (reads performed, failures that
// have stuck so far).
func (d *Device) Stats() (readPasses, totalFlips uint64) {
	return d.readsDone, d.flipsSoFar
}

// testDevice builds a small chip with an amplified weak population so tests
// have statistically meaningful failure counts.
func testDevice(t testing.TB, seed uint64, mutate func(*Config)) *Device {
	t.Helper()
	cfg := Config{
		Geometry:  Geometry{Banks: 8, RowsPerBank: 64, WordsPerRow: 256},
		Vendor:    VendorB(),
		Seed:      seed,
		WeakScale: 20,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// countFails runs one write/wait/read pass and returns the failing bits.
func countFails(d *Device, p patterns.Pattern, wait float64, now float64) []uint64 {
	d.WriteAll(p, now)
	return d.ReadCompareAll(now + wait)
}

func TestNewDeviceValidation(t *testing.T) {
	_, err := NewDevice(Config{Geometry: Geometry{}, Vendor: VendorB()})
	if err == nil {
		t.Error("invalid geometry not rejected")
	}
	_, err = NewDevice(Config{
		Geometry: Geometry{Banks: 1, RowsPerBank: 1, WordsPerRow: 1},
		Vendor:   VendorParams{},
	})
	if err == nil {
		t.Error("invalid vendor not rejected")
	}
}

func TestWeakPopulationSize(t *testing.T) {
	d := testDevice(t, 1, nil)
	cfg := d.cfg
	expected := float64(cfg.Geometry.TotalBits()) * cfg.Vendor.BER(maxRetentionS, RefTempC) * cfg.WeakScale
	n := float64(d.WeakCellCount())
	// The latent VRT reservoir adds on top; allow a wide band.
	if n < expected*0.7 || n > expected*2.5 {
		t.Errorf("weak cell count %v far from base expectation %v", n, expected)
	}
	if n < 500 {
		t.Fatalf("test device too small for statistics: %v weak cells", n)
	}
}

func TestDeterministicPopulation(t *testing.T) {
	a := testDevice(t, 42, nil)
	b := testDevice(t, 42, nil)
	if a.WeakCellCount() != b.WeakCellCount() {
		t.Fatal("same seed, different weak populations")
	}
	ca, cb := a.Cells(0), b.Cells(0)
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("cell %d differs between same-seed devices", i)
		}
	}
	// And the same experiment gives the same failures.
	fa := countFails(a, patterns.Checkerboard(), 2.048, 0)
	fb := countFails(b, patterns.Checkerboard(), 2.048, 0)
	if len(fa) != len(fb) {
		t.Fatalf("same-seed devices fail differently: %d vs %d", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatal("same-seed devices fail at different bits")
		}
	}
}

func TestNoFailuresAtDefaultInterval(t *testing.T) {
	d := testDevice(t, 2, nil)
	fails := countFails(d, patterns.Checkerboard(), 0.064, 0)
	if len(fails) != 0 {
		t.Errorf("%d failures at the default 64ms interval, want 0", len(fails))
	}
}

func TestFailuresGrowWithInterval(t *testing.T) {
	d := testDevice(t, 3, nil)
	prev := -1
	now := 0.0
	for _, wait := range []float64{0.512, 1.024, 2.048, 4.096} {
		fails := countFails(d, patterns.Random(7), wait, now)
		now += wait + 1
		if len(fails) <= prev {
			t.Errorf("failures did not grow: %d at %vs (prev %d)", len(fails), wait, prev)
		}
		prev = len(fails)
	}
	if prev < 50 {
		t.Errorf("too few failures at 4096ms for a meaningful test: %d", prev)
	}
}

func TestFailuresGrowWithTemperature(t *testing.T) {
	d := testDevice(t, 4, nil)
	counts := make(map[float64]int)
	now := 0.0
	for _, temp := range []float64{45, 55} {
		d.SetTemperature(temp)
		// Average over several iterations to smooth Bernoulli noise.
		total := 0
		for it := 0; it < 4; it++ {
			total += len(countFails(d, patterns.Random(uint64(it)), 1.024, now))
			now += 2
		}
		counts[temp] = total
	}
	if counts[55] < counts[45]*4 {
		t.Errorf("temperature scaling too weak: %d @45C vs %d @55C (want ~7x)",
			counts[45], counts[55])
	}
}

func TestChargedValueAsymmetry(t *testing.T) {
	// Solid-1 should find (mostly) true-cells and solid-0 anti-cells, with
	// almost no overlap.
	d := testDevice(t, 5, nil)
	f1 := countFails(d, patterns.Solid1(), 2.048, 0)
	f0 := countFails(d, patterns.Solid0(), 2.048, 10)
	set1 := make(map[uint64]bool, len(f1))
	for _, b := range f1 {
		set1[b] = true
	}
	overlap := 0
	for _, b := range f0 {
		if set1[b] {
			overlap++
		}
	}
	if len(f1) == 0 || len(f0) == 0 {
		t.Fatalf("expected failures from both polarities: %d / %d", len(f1), len(f0))
	}
	if overlap > 0 {
		t.Errorf("solid0 and solid1 failures overlap at %d cells; polarities should be disjoint", overlap)
	}
}

func TestPatternAndInverseCoverMoreThanEither(t *testing.T) {
	d := testDevice(t, 6, nil)
	p := patterns.Checkerboard()
	f := countFails(d, p, 2.048, 0)
	fi := countFails(d, patterns.Invert(p), 2.048, 10)
	union := make(map[uint64]bool)
	for _, b := range f {
		union[b] = true
	}
	for _, b := range fi {
		union[b] = true
	}
	if len(union) <= len(f) || len(union) <= len(fi) {
		t.Errorf("inverse pattern added nothing: %d + %d -> %d", len(f), len(fi), len(union))
	}
}

func TestStuckFailurePersistsUntilRewrite(t *testing.T) {
	d := testDevice(t, 7, nil)
	d.WriteAll(patterns.Solid1(), 0)
	fails := d.ReadCompareAll(4.096)
	if len(fails) == 0 {
		t.Fatal("need at least one failure for this test")
	}
	// An immediate re-read (no retention time elapsed) must still report
	// the same failures: the read restored the wrong values.
	again := d.ReadCompareAll(4.097)
	stillFailing := make(map[uint64]bool)
	for _, b := range again {
		stillFailing[b] = true
	}
	for _, b := range fails {
		if !stillFailing[b] {
			t.Fatalf("bit %d healed without a write", b)
		}
	}
	// Rewriting clears them.
	d.WriteAll(patterns.Solid1(), 5)
	if f := d.ReadCompareAll(5.01); len(f) != 0 {
		t.Errorf("%d failures right after rewrite, want 0", len(f))
	}
}

func TestRowLevelReadWrite(t *testing.T) {
	d := testDevice(t, 8, nil)
	words := make([]uint64, d.Geometry().WordsPerRow)
	for i := range words {
		words[i] = uint64(i) * 0x0101010101010101
	}
	if err := d.WriteRow(0, 5, words, 0); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadRow(0, 5, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i := range words {
		if got[i] != words[i] {
			t.Fatalf("word %d = %x, want %x", i, got[i], words[i])
		}
	}
	// Out-of-range accesses error.
	if err := d.WriteRow(99, 0, words, 0); err == nil {
		t.Error("bad bank not rejected")
	}
	if _, err := d.ReadRow(0, 1<<20, 0); err == nil {
		t.Error("bad row not rejected")
	}
	if err := d.WriteRow(0, 0, words[:1], 0); err == nil {
		t.Error("short row not rejected")
	}
}

func TestWordLevelReadWrite(t *testing.T) {
	d := testDevice(t, 9, nil)
	if err := d.WriteWord(1, 2, 3, 0xdeadbeefcafef00d, 0); err != nil {
		t.Fatal(err)
	}
	v, err := d.ReadWord(1, 2, 3, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xdeadbeefcafef00d {
		t.Fatalf("ReadWord = %x", v)
	}
	// Unwritten words in the same row read the bulk content (zero).
	v, err = d.ReadWord(1, 2, 4, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("unwritten word = %x, want 0", v)
	}
	if err := d.WriteWord(0, 0, -1, 0, 0); err == nil {
		t.Error("bad word index not rejected")
	}
	if _, err := d.ReadWord(0, 0, 1<<20, 0); err == nil {
		t.Error("bad word index not rejected on read")
	}
}

func TestRowWriteIsolatedFromBulk(t *testing.T) {
	d := testDevice(t, 10, nil)
	d.WriteAll(patterns.Solid1(), 0)
	words := make([]uint64, d.Geometry().WordsPerRow)
	if err := d.WriteRow(3, 3, words, 1); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadRow(3, 3, 1.001)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Error("row write did not take effect")
	}
	other, err := d.ReadRow(3, 4, 1.002)
	if err != nil {
		t.Fatal(err)
	}
	if other[0] != ^uint64(0) {
		t.Error("bulk content corrupted by row write")
	}
}

func TestAutoRefreshProtectsData(t *testing.T) {
	d := testDevice(t, 11, nil)
	d.SetAutoRefresh(0.064)
	d.WriteAll(patterns.Checkerboard(), 0)
	// A full simulated hour under 64ms auto-refresh: nothing may fail.
	fails := d.ReadCompareAll(3600)
	if len(fails) != 0 {
		t.Errorf("%d failures after 1h under 64ms auto-refresh, want 0", len(fails))
	}
}

func TestAutoRefreshAtExtendedIntervalAccumulates(t *testing.T) {
	d := testDevice(t, 12, nil)
	d.SetAutoRefresh(2.048)
	d.WriteAll(patterns.Random(1), 0)
	fails := d.ReadCompareAll(3600)
	if len(fails) == 0 {
		t.Error("no failures after 1h at 2048ms auto-refresh; extended-interval operation should fail")
	}
	// And more than a single no-refresh pass of 2.048s would give, because
	// every refresh cycle was a fresh trial.
	d2 := testDevice(t, 12, nil)
	single := countFails(d2, patterns.Random(1), 2.048, 0)
	if len(fails) <= len(single) {
		t.Errorf("auto-refresh accumulation (%d) not above single-pass failures (%d)",
			len(fails), len(single))
	}
}

func TestSetAutoRefreshNegativeClamped(t *testing.T) {
	d := testDevice(t, 13, nil)
	d.SetAutoRefresh(-5)
	if d.AutoRefresh() != 0 {
		t.Error("negative auto-refresh interval not clamped to 0")
	}
}

func TestVRTNewFailuresAccumulate(t *testing.T) {
	d := testDevice(t, 14, func(c *Config) { c.WeakScale = 100 })
	const wait = 2.048
	seen := make(map[uint64]bool)
	now := 0.0
	firstDay := 0
	// Two simulated days of repeated passes, 20 minutes apart.
	var newPerHalf [2]int
	for half := 0; half < 2; half++ {
		for i := 0; i < 72; i++ {
			d.WriteAll(patterns.Random(uint64(i)), now)
			for _, b := range d.ReadCompareAll(now + wait) {
				if !seen[b] {
					seen[b] = true
					newPerHalf[half]++
				}
			}
			now += 1200
		}
		if half == 0 {
			firstDay = len(seen)
		}
	}
	if firstDay == 0 {
		t.Fatal("no failures at all")
	}
	// VRT must keep producing new failures in the second day, after the
	// base population has been fully discovered.
	if newPerHalf[1] == 0 {
		t.Error("no new failures in the second simulated day; VRT accumulation missing")
	}
}

func TestDisableVRTStopsAccumulation(t *testing.T) {
	d := testDevice(t, 15, func(c *Config) { c.DisableVRT = true; c.WeakScale = 100 })
	for _, c := range d.Cells(0) {
		if c.VRT {
			t.Fatal("DisableVRT device has VRT cells")
		}
	}
}

func TestDisableDPDRemovesPatternSensitivity(t *testing.T) {
	d := testDevice(t, 16, func(c *Config) { c.DisableDPD = true })
	for _, c := range d.Cells(0) {
		if c.DPDSens != 0 {
			t.Fatal("DisableDPD device has DPD-sensitive cells")
		}
	}
}

func TestOracleMonotonicInInterval(t *testing.T) {
	d := testDevice(t, 17, nil)
	prev := d.TrueFailingSet(0.512, 45, 0, OracleThreshold)
	for _, tREFI := range []float64{1.024, 2.048, 4.096} {
		cur := d.TrueFailingSet(tREFI, 45, 0, OracleThreshold)
		if len(cur) < len(prev) {
			t.Errorf("oracle set shrank from %d to %d at %vs", len(prev), len(cur), tREFI)
		}
		// Superset check.
		in := make(map[uint64]bool, len(cur))
		for _, b := range cur {
			in[b] = true
		}
		missing := 0
		for _, b := range prev {
			if !in[b] {
				missing++
			}
		}
		// VRT state changes aside (time is frozen here), the set must nest.
		if missing > 0 {
			t.Errorf("%d cells failing at lower interval missing at %vs", missing, tREFI)
		}
		prev = cur
	}
}

func TestOracleMonotonicInTemperature(t *testing.T) {
	d := testDevice(t, 18, nil)
	n45 := len(d.TrueFailingSet(1.024, 45, 0, OracleThreshold))
	n55 := len(d.TrueFailingSet(1.024, 55, 0, OracleThreshold))
	if n55 <= n45 {
		t.Errorf("oracle set did not grow with temperature: %d @45C vs %d @55C", n45, n55)
	}
}

func TestCellFailProbLookup(t *testing.T) {
	d := testDevice(t, 19, nil)
	cells := d.Cells(0)
	if len(cells) == 0 {
		t.Fatal("no weak cells")
	}
	c := cells[0]
	p := d.CellFailProb(c.Bit, c.Mu*2, 45, 0)
	if p < 0.5 {
		t.Errorf("fail prob at 2x the cell's mean = %v, want >= 0.5", p)
	}
	if d.CellFailProb(c.Bit+1, 10, 45, 0) != 0 && d.CellFailProb(c.Bit-1, 10, 45, 0) != 0 {
		// Neighbouring bits are almost surely strong; at least one of the
		// two probes must be a strong cell returning 0.
		t.Error("strong-cell probe returned nonzero probability")
	}
}

func TestMeasuredCDFIsNormalPerCell(t *testing.T) {
	// Reproduce the Figure 6a measurement in miniature: for one weak cell,
	// the fraction of failing reads at interval t must follow the cell's
	// normal CDF.
	d := testDevice(t, 20, func(c *Config) { c.DisableVRT = true; c.DisableDPD = true })
	cells := d.Cells(0)
	var pick CellInfo
	for _, c := range cells {
		if c.Mu > 1 && c.Mu < 3 && c.ChargedVal == 1 {
			pick = c
			break
		}
	}
	if pick.Bit == 0 && pick.Mu == 0 {
		t.Skip("no suitable cell in population")
	}
	const iters = 400
	now := 0.0
	observed := 0
	at := pick.Mu // test exactly at the mean: expect ~50% failure rate
	for i := 0; i < iters; i++ {
		d.WriteAll(patterns.Solid1(), now)
		for _, b := range d.ReadCompareAll(now + at) {
			if b == pick.Bit {
				observed++
			}
		}
		now += at + 1
	}
	frac := float64(observed) / iters
	if math.Abs(frac-0.5) > 0.12 {
		t.Errorf("failure fraction at cell mean = %v, want ~0.5", frac)
	}
}

func TestStatsCounters(t *testing.T) {
	d := testDevice(t, 21, nil)
	d.WriteAll(patterns.Solid1(), 0)
	d.ReadCompareAll(4.096)
	passes, flips := d.Stats()
	if passes != 1 {
		t.Errorf("read passes = %d, want 1", passes)
	}
	if flips == 0 {
		t.Error("expected some flips at 4096ms")
	}
}
