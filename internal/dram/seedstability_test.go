package dram

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"reaper/internal/patterns"
)

// Seed-stability pins: these digests freeze the exact RNG draw order and
// failure sampling of the device model for fixed seeds. Any change that
// reorders RNG draws — a reordered loop, a new draw on a hot path, a changed
// sampling shortcut — breaks them. The parallel execution layer and the
// read-path optimizations are required to keep results byte-identical to
// the sequential seed implementation, and these tests are the tripwire.
//
// If a pin breaks because the model itself was *intentionally* changed,
// re-pin by running the test and copying the reported digests.

// failureDigest hashes an ordered failure list.
func failureDigest(h interface{ Write([]byte) (int, error) }, fails []uint64) {
	var buf [8]byte
	for _, b := range fails {
		for i := 0; i < 8; i++ {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
}

// profileDigest runs a fixed write/wait/read profiling sequence on a device
// and digests every pass's failure list in order.
func profileDigest(t *testing.T, seed uint64, autoRef float64) (uint64, int) {
	t.Helper()
	d := testDevice(t, seed, func(c *Config) {
		c.Geometry = Geometry{Banks: 4, RowsPerBank: 64, WordsPerRow: 128}
		c.WeakScale = 40
	})
	if autoRef > 0 {
		d.SetAutoRefresh(autoRef)
	}
	h := fnv.New64a()
	total := 0
	ps := []RowData{
		patterns.Solid1(),
		patterns.Solid0(),
		patterns.Checkerboard(),
		patterns.RowStripe(),
		patterns.Random(seed ^ 0xBEEF),
	}
	now := 0.0
	for it := 0; it < 3; it++ {
		for _, p := range ps {
			d.WriteAll(p, now)
			now += 2.048
			fails := d.ReadCompareAll(now)
			total += len(fails)
			failureDigest(h, fails)
			now += 0.5
		}
	}
	// Exercise the single-row paths too (they share the sampling code).
	for row := 0; row < 8; row++ {
		words, err := d.ReadRow(0, row, now)
		if err != nil {
			t.Fatal(err)
		}
		failureDigest(h, words[:4])
	}
	return h.Sum64(), total
}

func TestSeedStabilityProfileDigest(t *testing.T) {
	cases := []struct {
		name       string
		seed       uint64
		autoRef    float64
		wantDigest uint64
		wantFails  int
	}{
		{name: "seed7-noref", seed: 7, autoRef: 0, wantDigest: 0x1e47154ee8ecf60d, wantFails: 505},
		{name: "seed23-noref", seed: 23, autoRef: 0, wantDigest: 0x77b7ce6ff9696bdf, wantFails: 464},
		{name: "seed7-autoref", seed: 7, autoRef: 0.064, wantDigest: 0x599a18bc4aca3b9a, wantFails: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			digest, fails := profileDigest(t, tc.seed, tc.autoRef)
			if tc.wantDigest == 0 {
				t.Logf("pin: {name: %q, seed: %d, autoRef: %v, wantDigest: 0x%x, wantFails: %d}",
					tc.name, tc.seed, tc.autoRef, digest, fails)
				t.Fatal("unpinned seed-stability case; copy the digest above into the table")
			}
			if digest != tc.wantDigest || fails != tc.wantFails {
				t.Errorf("digest = 0x%x (%d failures), want 0x%x (%d): RNG draw order or sampling changed",
					digest, fails, tc.wantDigest, tc.wantFails)
			}
		})
	}
}

// TestSeedStabilityPopulation pins the sampled weak-cell population itself:
// the cell count, the digest of the bit-ordered bit positions, and a digest
// of everything construction derives (populationDigest). The collision case
// draws ~950 cells on 2,048 bits, so about one bit draw in four repeats a
// drawn bit and is redrawn; the no-VRT case builds no reservoir.
func TestSeedStabilityPopulation(t *testing.T) {
	cases := []struct {
		name       string
		seed       uint64
		mutate     func(*Config)
		wantCount  int
		wantBits   uint64
		wantDigest uint64
	}{
		{name: "seed99", seed: 99, mutate: func(c *Config) {
			c.Geometry = Geometry{Banks: 4, RowsPerBank: 64, WordsPerRow: 128}
			c.WeakScale = 40
		}, wantCount: 3954, wantBits: 0xa54218cf2631f03c, wantDigest: 0x59a7c91ffcb3bd24},
		{name: "collisions", seed: 5, mutate: func(c *Config) {
			c.Geometry = Geometry{Banks: 2, RowsPerBank: 2, WordsPerRow: 8}
			c.WeakScale = 10000
		}, wantCount: 953, wantBits: 0xf2dfde08863e8342, wantDigest: 0x8da2e405cf697480},
		{name: "novrt", seed: 13, mutate: func(c *Config) {
			c.Geometry = Geometry{Banks: 4, RowsPerBank: 64, WordsPerRow: 128}
			c.WeakScale = 40
			c.DisableVRT = true
		}, wantCount: 3749, wantBits: 0xacebd428bc15d2c4, wantDigest: 0xe3d8ee3fbb196863},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := testDevice(t, tc.seed, tc.mutate)
			h := fnv.New64a()
			cells := d.Cells(0)
			for _, c := range cells {
				var buf [8]byte
				for i := 0; i < 8; i++ {
					buf[i] = byte(c.Bit >> (8 * i))
				}
				h.Write(buf[:])
			}
			digest := populationDigest(d)
			if tc.wantDigest == 0 {
				t.Logf("pin: wantCount: %d, wantBits: 0x%x, wantDigest: 0x%x", len(cells), h.Sum64(), digest)
				t.Fatal("unpinned population case; copy the values above")
			}
			if len(cells) != tc.wantCount || h.Sum64() != tc.wantBits || digest != tc.wantDigest {
				t.Errorf("population = %d cells, bits 0x%x, digest 0x%x; want %d, 0x%x, 0x%x",
					len(cells), h.Sum64(), digest, tc.wantCount, tc.wantBits, tc.wantDigest)
			}
		})
	}
}

// populationDigest hashes what construction derives: every cell of the
// bit-ordered population with its rank and drawn parameters, the row
// offsets, the activation index's order and exact key bits, and the next
// draw of the device stream (which it consumes).
func populationDigest(d *Device) uint64 {
	h := fnv.New64a()
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	f := math.Float64bits
	for _, c := range d.weak {
		put(c.bit)
		put(uint64(c.rank))
		put(f(c.mu))
		put(f(c.sigma))
		put(f(c.dpdSens))
		put(c.dpdSeed)
		put(uint64(c.chargedVal))
		if v := c.vrt; v != nil {
			put(f(v.muLow))
			put(f(v.muHigh))
			put(f(v.dwellLow))
			put(f(v.dwellHigh))
			put(f(v.nextSwitch))
			if v.inLow {
				put(1)
			}
		}
	}
	for _, s := range d.rowStart {
		put(uint64(s))
	}
	for j, c := range d.actCells {
		put(c.bit)
		put(f(d.actKeys[j]))
	}
	put(d.src.Uint64())
	return h.Sum64()
}
