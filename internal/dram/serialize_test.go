package dram

import (
	"bytes"
	"slices"
	"testing"

	"reaper/internal/checkpoint"
	"reaper/internal/patterns"
	"reaper/internal/rng"
)

// resolvePattern adapts patterns.Parse to the RowData resolver RestoreDelta
// expects; it is what production checkpoint plumbing passes too.
func resolvePattern(name string) (RowData, error) {
	p, err := patterns.Parse(name)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// driveScript runs one deterministic mid-campaign segment against d: pattern
// writes, retention reads under varying temperature and auto-refresh, cache
// revisits, fault injections, VRT bursts, DPD rescrambles, and targeted
// row/word writes (which exercise the stuck overlay and row-deviation map).
// ops must be a dedicated stream so twin devices can be driven identically.
// Returns the concatenated fail lists of every read.
func driveScript(d *Device, ops *rng.Source, start float64) []uint64 {
	pats := []RowData{patterns.Solid1(), patterns.Checkerboard(), patterns.Random(0xD15C)}
	now := start
	var fails []uint64
	read := func() {
		now += 2.048
		fails = append(fails, d.ReadCompareAll(now)...)
	}
	// Steady cadence on one pattern: populates, then replays, a cached round.
	for i := 0; i < 3; i++ {
		d.WriteAll(pats[0], now)
		read()
	}
	// Condition churn: new patterns, temperature steps, auto-refresh toggle.
	d.SetTemperature(d.Temperature() + 10)
	d.WriteAll(pats[1], now)
	read()
	d.SetAutoRefresh(0.128)
	d.WriteAll(pats[2], now)
	read()
	d.SetAutoRefresh(0)
	// Faults mid-stream: injections, a VRT burst, a DPD rescramble.
	d.InjectWeakCells(ops, 5, 4.0, now)
	d.ForceVRTLowBurst(ops, 3, 60.0, now)
	d.RescrambleDPD(ops, 4)
	d.WriteAll(pats[0], now)
	read()
	// Targeted writes: row rewrite plus single-word pokes. These clear stuck
	// state for the touched cells and leave stale stuck-list entries behind —
	// exactly the overlay shape a checkpoint must carry.
	_ = d.WriteRow(0, 1, []uint64{^uint64(0)}, now)
	_ = d.WriteWord(0, 2, 0, 0xABCD, now)
	read()
	read() // second read without rewrite: replays the live stuck overlay
	d.WriteAll(pats[0], now)
	read()
	return fails
}

// requireSameDevice is the field-by-field oracle for two devices built from
// the same Config: every weak cell's scalars and VRT state (stream position
// included), the stuck overlay in list order, the counters, the device
// stream, and the EncodeDelta bytes must all match. It only reads, so
// it can run between lockstep segments.
func requireSameDevice(t *testing.T, a, b *Device) {
	t.Helper()
	if len(a.weak) != len(b.weak) {
		t.Fatalf("weak population: %d vs %d cells", len(a.weak), len(b.weak))
	}
	for i := range a.weak {
		ca, cb := a.weak[i], b.weak[i]
		if ca.bit != cb.bit || ca.mu != cb.mu || ca.sigma != cb.sigma || ca.dpdSens != cb.dpdSens ||
			ca.dpdSeed != cb.dpdSeed || ca.chargedVal != cb.chargedVal || ca.stuck != cb.stuck {
			t.Fatalf("weak cell %d: bit %d vs %d, scalars differ", i, ca.bit, cb.bit)
		}
		va, vb := ca.vrt, cb.vrt
		if (va == nil) != (vb == nil) {
			t.Fatalf("weak cell %d (bit %d): VRT presence differs", i, ca.bit)
		}
		if va != nil && (va.muLow != vb.muLow || va.muHigh != vb.muHigh || va.dwellLow != vb.dwellLow ||
			va.dwellHigh != vb.dwellHigh || va.inLow != vb.inLow || va.nextSwitch != vb.nextSwitch ||
			va.src.State() != vb.src.State()) {
			t.Fatalf("weak cell %d (bit %d): VRT state differs", i, ca.bit)
		}
	}
	if len(a.stuckList) != len(b.stuckList) {
		t.Fatalf("stuck overlay: %d vs %d entries", len(a.stuckList), len(b.stuckList))
	}
	for i := range a.stuckList {
		if sa, sb := a.stuckList[i], b.stuckList[i]; sa.bit != sb.bit || sa.stuck != sb.stuck {
			t.Fatalf("stuck overlay entry %d: (bit %d, stuck %d) vs (bit %d, stuck %d)",
				i, sa.bit, sa.stuck, sb.bit, sb.stuck)
		}
	}
	if a.IndexStats() != b.IndexStats() {
		t.Fatalf("index stats: %+v vs %+v", a.IndexStats(), b.IndexStats())
	}
	if a.IncrStats() != b.IncrStats() {
		t.Fatalf("incremental stats: %+v vs %+v", a.IncrStats(), b.IncrStats())
	}
	ra, fa := a.Stats()
	rb, fb := b.Stats()
	if ra != rb || fa != fb {
		t.Fatalf("device stats: (%d, %d) vs (%d, %d)", ra, fa, rb, fb)
	}
	if a.src.State() != b.src.State() {
		t.Fatalf("device stream: %v vs %v", a.src.State(), b.src.State())
	}
	ea, eb := checkpoint.NewEncoder(), checkpoint.NewEncoder()
	if err := a.EncodeDelta(ea); err != nil {
		t.Fatal(err)
	}
	if err := b.EncodeDelta(eb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea.Data(), eb.Data()) {
		t.Fatalf("EncodeDelta bytes differ: %d vs %d bytes", len(ea.Data()), len(eb.Data()))
	}
}

// requireCheckpointTwin is the lockstep-twin property the checkpoint tests
// share: drive a device built from cfg through a messy mid-campaign segment
// (sweeps, injections, a forced VRT burst, DPD rescrambles, partial writes),
// encode its divergence delta, restore the delta into the fresh device that
// target builds, and require the two to match field by field, then stay in
// lockstep through a second driven segment.
func requireCheckpointTwin(t *testing.T, cfg Config, target func(orig *Device) (*Device, error)) {
	t.Helper()
	orig, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if orig.WeakCellCount() == 0 {
		t.Fatal("degenerate test: no weak cells")
	}

	// Segment 1: reach a state with injections, forced VRT, rescrambled DPD,
	// live and stale stuck entries, row deviations, and a warm round cache.
	driveScript(orig, rng.New(0x5EC1), 0)
	if len(orig.injected) == 0 || len(orig.vrtForced) == 0 || len(orig.dpdReseeded) == 0 {
		t.Fatalf("script left no divergence to test: %d injected, %d vrt, %d dpd",
			len(orig.injected), len(orig.vrtForced), len(orig.dpdReseeded))
	}
	if len(orig.stuckList) == 0 {
		t.Fatal("script left no stuck overlay to test")
	}

	e := checkpoint.NewEncoder()
	if err := orig.EncodeDelta(e); err != nil {
		t.Fatal(err)
	}
	twin, err := target(orig)
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.RestoreDelta(checkpoint.NewDecoder(e.Data()), resolvePattern); err != nil {
		t.Fatal(err)
	}
	requireSameDevice(t, orig, twin)

	// Segment 2: lockstep. Separate-but-identical op streams so injections
	// draw the same values on both sides.
	failsA := driveScript(orig, rng.New(0x0B5E), 30)
	failsB := driveScript(twin, rng.New(0x0B5E), 30)
	if !slices.Equal(failsA, failsB) {
		t.Fatalf("post-restore fail streams diverge: %d vs %d fails", len(failsA), len(failsB))
	}
	if orig.IncrStats().FastSweeps == 0 {
		t.Error("script never hit the round cache; test exercised nothing")
	}
	requireSameDevice(t, orig, twin)
}

// TestDeviceStateRoundTrip checkpoints a driven device and restores it into
// a freshly constructed device of the same config: every read, every counter
// and the re-encoded delta must then match exactly — any drift means the
// codec lost state.
func TestDeviceStateRoundTrip(t *testing.T) {
	cfg := deltaTestConfig()
	cfg.Seed = 77
	t.Run("dense", func(t *testing.T) {
		requireCheckpointTwin(t, cfg, func(*Device) (*Device, error) { return NewDevice(cfg) })
	})
}
