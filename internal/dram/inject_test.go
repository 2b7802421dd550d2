package dram

import (
	"slices"
	"testing"

	"reaper/internal/rng"
)

// VRTCellsInLow reports, of the device's VRT cells with low-state retention
// mean at most maxMuLowSeconds (<= 0: all), how many are currently in the
// low state, catching each counted cell's VRT process up to now. It
// observes latent state no read exposes; the injection tests use it to
// check ForceVRTLowBurst.
func (d *Device) VRTCellsInLow(maxMuLowSeconds, now float64) (inLow, total int) {
	for _, c := range d.weak {
		if c.vrt == nil {
			continue
		}
		if maxMuLowSeconds > 0 && c.vrt.muLow > maxMuLowSeconds {
			continue
		}
		c.vrt.advance(now)
		total++
		if c.vrt.inLow {
			inLow++
		}
	}
	return inLow, total
}

func newInjectTestDevice(t *testing.T, seed uint64) *Device {
	t.Helper()
	d, err := NewDevice(Config{
		Geometry:  Geometry{Banks: 8, RowsPerBank: 64, WordsPerRow: 256},
		Vendor:    VendorB(),
		Seed:      seed,
		WeakScale: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestInjectWeakCellAt(t *testing.T) {
	d := newInjectTestDevice(t, 11)
	src := rng.New(99)
	before := d.WeakCellCount()

	// Find a bit that is not already weak.
	bit := uint64(12345)
	for d.CellFailProb(bit, 8, 45, 0) > 0 {
		bit++
	}
	if !d.InjectWeakCellAt(src, bit, 0.5, 0) {
		t.Fatal("injection at fresh bit failed")
	}
	if d.WeakCellCount() != before+1 {
		t.Fatalf("weak count %d, want %d", d.WeakCellCount(), before+1)
	}
	// The injected cell is visible to the oracle and must fail its
	// worst-case pattern at a long interval (mu <= 0.5s, clip at mu+3.5σ).
	if p := d.CellFailProb(bit, 8, 45, 0); p != 1 {
		t.Fatalf("injected cell worst-case fail prob at 8s = %v, want 1", p)
	}
	if d.InjectWeakCellAt(src, bit, 0.5, 0) {
		t.Fatal("duplicate injection not rejected")
	}
	if d.InjectWeakCellAt(src, uint64(d.Geometry().TotalBits()), 0.5, 0) {
		t.Fatal("out-of-range injection not rejected")
	}
	// Sorted-order invariants survive insertion.
	cells := d.Cells(0)
	for i := 1; i < len(cells); i++ {
		if cells[i-1].Bit >= cells[i].Bit {
			t.Fatalf("weak population unsorted at %d", i)
		}
	}
}

func TestInjectWeakCellsDeterministicAndPrivate(t *testing.T) {
	// Same device seed, same injection stream => identical bits.
	d1 := newInjectTestDevice(t, 7)
	d2 := newInjectTestDevice(t, 7)
	bits1 := d1.InjectWeakCells(rng.New(5), 8, 0.4, 0)
	bits2 := d2.InjectWeakCells(rng.New(5), 8, 0.4, 0)
	if !slices.Equal(bits1, bits2) {
		t.Fatalf("injection not deterministic: %v vs %v", bits1, bits2)
	}
	if !slices.IsSorted(bits1) || len(bits1) != 8 {
		t.Fatalf("bad injection result %v", bits1)
	}

	// Injection must not consume the device's own stream: a pristine
	// same-seed device and the injected one read the common population
	// identically. maxMu=0.4s makes injected cells deterministic (p is 0 or
	// 1) at a 4s read, so they consume no draws either.
	d3 := newInjectTestDevice(t, 7)
	now := 4.0
	failsInjected := d1.ReadCompareAll(now)
	failsPristine := d3.ReadCompareAll(now)
	for _, b := range failsPristine {
		if !slices.Contains(failsInjected, b) {
			t.Fatalf("pristine failure %d missing after injection (device stream disturbed)", b)
		}
	}
	for _, b := range failsInjected {
		if !slices.Contains(failsPristine, b) && !slices.Contains(bits1, b) {
			t.Fatalf("unexpected new failure %d not among injected bits", b)
		}
	}
}

func TestForceVRTLowBurst(t *testing.T) {
	d := newInjectTestDevice(t, 3)
	src := rng.New(17)
	lowBefore, total := d.VRTCellsInLow(0, 0)
	if total == 0 {
		t.Skip("no VRT cells sampled at this seed/scale")
	}
	forced := d.ForceVRTLowBurst(src, 5, 0, 0)
	lowAfter, _ := d.VRTCellsInLow(0, 0)
	if len(forced) == 0 {
		t.Fatal("no cells forced despite candidates")
	}
	if lowAfter != lowBefore+len(forced) {
		t.Fatalf("in-low count %d, want %d + %d", lowAfter, lowBefore, len(forced))
	}
	if !slices.IsSorted(forced) {
		t.Fatalf("forced bits unsorted: %v", forced)
	}
}

func TestRescrambleDPD(t *testing.T) {
	d1 := newInjectTestDevice(t, 21)
	d2 := newInjectTestDevice(t, 21)
	bits1 := d1.RescrambleDPD(rng.New(1), 10)
	bits2 := d2.RescrambleDPD(rng.New(1), 10)
	if !slices.Equal(bits1, bits2) {
		t.Fatalf("rescramble not deterministic: %v vs %v", bits1, bits2)
	}
	if len(bits1) == 0 {
		t.Fatal("no DPD-sensitive cells rescrambled")
	}
	// The rescrambled cells are all members of the weak population.
	for _, b := range bits1 {
		if !isWeakBit(d1, b) {
			t.Fatalf("rescrambled bit %d is not a weak cell", b)
		}
	}
}

func isWeakBit(dev *Device, bit uint64) bool {
	for _, c := range dev.weak {
		if c.bit == bit {
			return true
		}
	}
	return false
}
