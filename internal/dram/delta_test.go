package dram

import (
	"strings"
	"testing"

	"reaper/internal/checkpoint"
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
	requireCheckpointTwin(t, deltaTestConfig(), 0, func(orig *Device) (*Device, error) {
		return orig.Ref().Materialize()
	})
}

// TestDeltaRestoreGuards pins the delta codec's refusal paths: a target with
// prior divergence, a wrong-seed target, and a wrong-geometry target must
// all fail loudly.
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

// TestDeltaRestoreCorrupt feeds damaged delta blobs to RestoreDelta, the
// restore every resumed soak runs on bytes read back from disk: every
// truncation of a driven device's blob must return an error, and seeded
// single-bit flips must restore or return an error, never panic or size an
// allocation from a corrupt count.
func TestDeltaRestoreCorrupt(t *testing.T) {
	cfg := Config{
		Geometry:  Geometry{Banks: 2, RowsPerBank: 16, WordsPerRow: 32},
		Vendor:    VendorB(),
		Seed:      5,
		WeakScale: 20,
	}
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveScript(d, rng.New(1), 0)
	e := checkpoint.NewEncoder()
	if err := d.EncodeDelta(e); err != nil {
		t.Fatal(err)
	}
	blob := e.Data()
	restore := func(b []byte) error {
		fresh, err := d.Ref().Materialize()
		if err != nil {
			t.Fatal(err)
		}
		return fresh.RestoreDelta(checkpoint.NewDecoder(b), resolvePattern)
	}
	if err := restore(blob); err != nil {
		t.Fatalf("intact blob: %v", err)
	}
	for cut := 0; cut < len(blob); cut++ {
		if restore(blob[:cut]) == nil {
			t.Fatalf("truncation at %d of %d bytes not detected", cut, len(blob))
		}
	}
	flips := rng.New(0xF11B)
	mutant := make([]byte, len(blob))
	for i := 0; i < 3000; i++ {
		copy(mutant, blob)
		bit := flips.Intn(8 * len(blob))
		mutant[bit/8] ^= 1 << (bit % 8)
		_ = restore(mutant) // an error is fine; a panic fails the test
	}
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
