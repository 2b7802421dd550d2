package dram

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"reaper/internal/rng"
)

// requireTableOrder checks the table's order against a sort of the bits it
// accepted: complete, strictly ascending, and each bit paired with the draw
// index that holds it.
func requireTableOrder(t *testing.T, label string, tb *bitTable, drawn []uint64) {
	t.Helper()
	want := slices.Clone(drawn)
	slices.Sort(want)
	sorted, idx := tb.order()
	if !slices.Equal(sorted, want) {
		t.Fatalf("%s: order gave %d bits %v..., want %d %v...", label, len(sorted), head(sorted), len(want), head(want))
	}
	seen := make([]bool, len(drawn))
	for k, i := range idx {
		if int(i) >= len(drawn) || seen[i] || drawn[i] != sorted[k] {
			t.Fatalf("%s: slot %d names draw %d for bit %d", label, k, i, sorted[k])
		}
		seen[i] = true
	}
}

func head(s []uint64) []uint64 { return s[:min(len(s), 8)] }

// fillTable adds random bits below total until cells distinct ones are in,
// refusing each repeat, and returns them in draw order.
func fillTable(t *testing.T, tb *bitTable, src *rng.Source, total uint64, cells int) []uint64 {
	t.Helper()
	var drawn []uint64
	taken := make(map[uint64]bool)
	for len(drawn) < cells {
		bit := src.Uint64n(total)
		if got := tb.add(bit); got == taken[bit] {
			t.Fatalf("add(%d) = %v with the bit already drawn = %v", bit, got, taken[bit])
		}
		if !taken[bit] {
			taken[bit] = true
			drawn = append(drawn, bit)
		}
	}
	return drawn
}

func TestBitTableOrder(t *testing.T) {
	src := rng.New(17)
	for _, tc := range []struct {
		name        string
		total       uint64
		want, cells int
		wantBuckets int
	}{
		{name: "sized", total: 1 << 20, want: 1000, cells: 1000, wantBuckets: 1024},
		{name: "odd total", total: 3*4096 + 7, want: 300, cells: 300, wantBuckets: 385},
		{name: "oversubscribed", total: 1 << 20, want: 4, cells: 2000, wantBuckets: 4},
		{name: "single bucket", total: 5000, want: 1, cells: 200, wantBuckets: 1},
		{name: "crowded", total: 2048, want: 900, cells: 2000, wantBuckets: 1024},
		{name: "capped at total", total: 100, want: 1 << 20, cells: 100, wantBuckets: 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := newBitTable(tc.total, tc.want)
			if len(tb.head) != tc.wantBuckets {
				t.Fatalf("%d buckets, want %d", len(tb.head), tc.wantBuckets)
			}
			drawn := fillTable(t, tb, src, tc.total, tc.cells)
			requireTableOrder(t, tc.name, tb, drawn)
		})
	}
}

func TestBitTableEdges(t *testing.T) {
	const total = 1 << 16
	tb := newBitTable(total, 64)
	var drawn []uint64
	for _, bit := range []uint64{total - 1, 0, total / 2, 1, total - 2} {
		if !tb.add(bit) {
			t.Fatalf("add(%d) refused a fresh bit", bit)
		}
		drawn = append(drawn, bit)
	}
	for _, bit := range []uint64{0, total - 1, total / 2} {
		if tb.add(bit) {
			t.Fatalf("add(%d) accepted a repeated bit", bit)
		}
	}
	if len(tb.bits) != len(drawn) || len(tb.next) != len(drawn) {
		t.Fatalf("a refused bit was recorded: %d bits, %d links, want %d", len(tb.bits), len(tb.next), len(drawn))
	}
	requireTableOrder(t, "edges", tb, drawn)

	empty := newBitTable(total, 0)
	if sorted, idx := empty.order(); len(sorted) != 0 || len(idx) != 0 {
		t.Fatalf("empty table ordered %d bits", len(sorted))
	}
}

// TestNewDeviceRefusesUnbuildablePopulation builds configs whose weak
// population cannot be drawn: more cells than the device has bits, or a
// NaN or infinite expected count, which validation lets through.
// Construction redraws a bit until it is fresh, and the count's Poisson
// draw never returns on a NaN mean, so without the checks the first two
// cases and the NaN ones would never return.
func TestNewDeviceRefusesUnbuildablePopulation(t *testing.T) {
	tiny := func(mutate func(*Config)) Config {
		cfg := Config{Geometry: Geometry{1, 1, 1}, Vendor: VendorB(), Seed: 1, WeakScale: 1}
		mutate(&cfg)
		return cfg
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		// ~2,900 base cells on 64 bits.
		{"base", tiny(func(c *Config) { c.WeakScale = 1e6 }), "weak cells drawn for a 64-bit device"},
		// ~960 base cells fit on 1,024 bits; with ~100 latent VRT cells
		// they do not.
		{"reservoir", Config{Geometry: Geometry{1, 1, 16}, Vendor: VendorC(), Seed: 2, WeakScale: 10350}, "latent VRT cells"},
		{"NaN scale", tiny(func(c *Config) { c.WeakScale = math.NaN() }), "not finite"},
		{"infinite scale", tiny(func(c *Config) { c.WeakScale = math.Inf(1) }), "not finite"},
		{"NaN vendor", tiny(func(c *Config) { c.Vendor.BERAt1024ms = math.NaN() }), "not finite"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() {
				_, err := NewDevice(tc.cfg)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("NewDevice error = %v, want one naming %q", err, tc.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("NewDevice did not return within 10s")
			}
		})
	}
}
