package dram

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"reaper/internal/checkpoint"
	"reaper/internal/patterns"
	"reaper/internal/rng"
)

// savepointOps runs a random op script drawn from ops against d and returns
// every ReadCompareAll result. Twin devices driven with identically seeded
// op streams receive identical scripts. Time advances monotonically from
// start, sometimes by long idle gaps so VRT cells switch state mid-script;
// read windows and temperatures come from small sets so sweep signatures
// repeat and the round cache both fills and hits.
func savepointOps(d *Device, ops *rng.Source, start float64, n int) [][]uint64 {
	pats := []RowData{
		patterns.Solid1(), patterns.Checkerboard(), patterns.Invert(patterns.Checkerboard()),
		patterns.Random(ops.Uint64()),
	}
	now := start
	var reads [][]uint64
	for i := 0; i < n; i++ {
		switch ops.Intn(9) {
		case 0, 1:
			d.WriteAll(pats[ops.Intn(len(pats))], now)
		case 2, 3:
			now += 1.024 * float64(1+ops.Intn(3))
			reads = append(reads, d.ReadCompareAll(now))
		case 4:
			now += 1.024 * float64(1+ops.Intn(3))
			d.RestoreAll(now)
		case 5:
			g := d.Geometry()
			words := make([]uint64, g.WordsPerRow)
			for w := range words {
				words[w] = ops.Uint64()
			}
			_ = d.WriteRow(ops.Intn(g.Banks), ops.Intn(g.RowsPerBank), words, now)
		case 6:
			g := d.Geometry()
			_ = d.WriteWord(ops.Intn(g.Banks), ops.Intn(g.RowsPerBank), ops.Intn(g.WordsPerRow), ops.Uint64(), now)
		case 7:
			d.SetTemperature(float64(45 + 10*ops.Intn(3)))
		case 8:
			if ops.Bernoulli(0.5) {
				d.SetAutoRefresh(0)
			} else {
				d.SetAutoRefresh(0.064 * float64(1+ops.Intn(4)))
			}
			now += 3600 * ops.Float64()
		}
	}
	return reads
}

// encodeDelta returns the device's EncodeDelta bytes.
func encodeDelta(t *testing.T, d *Device) []byte {
	t.Helper()
	e := checkpoint.NewEncoder()
	if err := d.EncodeDelta(e); err != nil {
		t.Fatal(err)
	}
	return e.Data()
}

// TestSavepointRollbackMatchesFreshTwin is the savepoint property: after any
// op script and a rollback, the device behaves exactly like a fresh
// Ref().Materialize() twin brought to the savepoint state. Each round drives
// the rolled-back device and a new twin through the same random script in
// lockstep and requires equal reads, counters, EncodeDelta bytes and next
// raw device-stream draw.
func TestSavepointRollbackMatchesFreshTwin(t *testing.T) {
	prefixes := map[string]func(*Device){
		"pristine": func(*Device) {},
		// A savepoint past construction: written content, a raised
		// temperature and auto-refresh, but no reads yet.
		"written": func(d *Device) {
			d.SetTemperature(55)
			d.SetAutoRefresh(0.064)
			d.WriteAll(patterns.Checkerboard(), 1)
		},
	}
	for name, prefix := range prefixes {
		t.Run(name, func(t *testing.T) {
			d := testDevice(t, 31, nil)
			prefix(d)
			sp, err := d.Savepoint()
			if err != nil {
				t.Fatal(err)
			}
			var fast, flipped uint64 // summed over rounds: rollback rewinds the counters
			for round := 0; round < 6; round++ {
				if round > 0 {
					if err := d.Rollback(sp); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
				}
				twin, err := d.Ref().Materialize()
				if err != nil {
					t.Fatal(err)
				}
				prefix(twin)
				if !bytes.Equal(encodeDelta(t, d), encodeDelta(t, twin)) {
					t.Fatalf("round %d: rolled-back device encodes differently from its twin before the script", round)
				}
				seed := uint64(0x5A7E + round)
				got := savepointOps(d, rng.New(seed), 2, 60)
				want := savepointOps(twin, rng.New(seed), 2, 60)
				if len(got) != len(want) {
					t.Fatalf("round %d: %d reads vs %d", round, len(got), len(want))
				}
				for i := range got {
					if !slices.Equal(got[i], want[i]) {
						t.Fatalf("round %d read %d: %d fails vs twin's %d", round, i, len(got[i]), len(want[i]))
					}
				}
				checkTwinState(t, fmt.Sprintf("round %d", round), d, twin)
				fast += d.IncrStats().FastSweeps
				flipped += d.IndexStats().Flipped
				if got, want := d.src.Uint64(), twin.src.Uint64(); got != want {
					t.Fatalf("round %d: next device-stream draw %#x vs %#x", round, got, want)
				}
			}
			if fast == 0 || flipped == 0 {
				t.Fatalf("scripts exercised too little: %d cached sweeps, %d flips", fast, flipped)
			}
		})
	}
}

// checkTwinState requires equal operation counters and EncodeDelta bytes.
func checkTwinState(t *testing.T, label string, d, twin *Device) {
	t.Helper()
	ra, fa := d.Stats()
	rb, fb := twin.Stats()
	if ra != rb || fa != fb {
		t.Fatalf("%s: Stats (%d,%d) vs twin (%d,%d)", label, ra, fa, rb, fb)
	}
	if d.IndexStats() != twin.IndexStats() {
		t.Fatalf("%s: IndexStats %+v vs twin %+v", label, d.IndexStats(), twin.IndexStats())
	}
	if d.IncrStats() != twin.IncrStats() {
		t.Fatalf("%s: IncrStats %+v vs twin %+v", label, d.IncrStats(), twin.IncrStats())
	}
	if !bytes.Equal(encodeDelta(t, d), encodeDelta(t, twin)) {
		t.Fatalf("%s: EncodeDelta bytes differ from twin", label)
	}
}

// TestSavepointRefusals pins every state Savepoint and Rollback refuse
// because they could not restore it exactly.
func TestSavepointRefusals(t *testing.T) {
	t.Run("stuck cells", func(t *testing.T) {
		d := testDevice(t, 32, nil)
		d.WriteAll(patterns.Solid1(), 0)
		if fails := d.ReadCompareAll(8); len(fails) == 0 {
			t.Fatal("degenerate test: no stuck cells")
		}
		if _, err := d.Savepoint(); err == nil {
			t.Fatal("savepoint of a device with stuck cells accepted")
		}
	})
	t.Run("deviant rows", func(t *testing.T) {
		d := testDevice(t, 32, nil)
		if err := d.WriteWord(0, 0, 0, 1, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Savepoint(); err == nil {
			t.Fatal("savepoint of a device with deviant rows accepted")
		}
	})
	t.Run("round cache", func(t *testing.T) {
		d := testDevice(t, 32, nil)
		d.WriteAll(patterns.Solid1(), 0)
		if fails := d.ReadCompareAll(0.1); len(fails) != 0 || len(d.rounds) == 0 {
			t.Fatalf("degenerate test: %d fails, %d cached rounds", len(fails), len(d.rounds))
		}
		if _, err := d.Savepoint(); err == nil {
			t.Fatal("savepoint of a device with cached rounds accepted")
		}
	})
	t.Run("another device", func(t *testing.T) {
		d, other := testDevice(t, 32, nil), testDevice(t, 32, nil)
		sp, err := other.Savepoint()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Rollback(sp); err == nil {
			t.Fatal("rollback to another device's savepoint accepted")
		}
	})
	injections := map[string]func(*Device, *rng.Source){
		"InjectWeakCells":  func(d *Device, src *rng.Source) { d.InjectWeakCells(src, 3, 0, 0) },
		"ForceVRTLowBurst": func(d *Device, src *rng.Source) { d.ForceVRTLowBurst(src, 3, 0, 0) },
		"RescrambleDPD":    func(d *Device, src *rng.Source) { d.RescrambleDPD(src, 3) },
	}
	for name, inject := range injections {
		t.Run("rollback after "+name, func(t *testing.T) {
			d := testDevice(t, 32, nil)
			sp, err := d.Savepoint()
			if err != nil {
				t.Fatal(err)
			}
			inject(d, rng.New(5))
			if err := d.Rollback(sp); err == nil {
				t.Fatalf("rollback after %s accepted", name)
			}
		})
	}
}

// TestWeakCellSize pins the cell layout: the grid keeps a 64 Mbit chip per
// worker live for a whole grid, so the cell must stay within one 64-byte
// cache line.
func TestWeakCellSize(t *testing.T) {
	if got := unsafe.Sizeof(weakCell{}); got > 64 {
		t.Fatalf("weakCell is %d bytes, want <= 64", got)
	}
}
