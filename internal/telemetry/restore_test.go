package telemetry

import (
	"bytes"
	"fmt"
	"testing"

	"reaper/internal/checkpoint"
)

// TestRegistryRestoreRoundTrip checks the resume contract: snapshotting a
// registry, serializing the snapshot with the checkpoint codec, merging it
// into a fresh registry and snapshotting again yields byte-identical JSON —
// and metrics keep counting from their restored values.
func TestRegistryRestoreRoundTrip(t *testing.T) {
	r := New()
	r.Counter("soak_chips_total").Add(8)
	r.Counter("scrub_corrected_total", L("chip", "3")).Add(1234)
	r.Gauge("firmware_degrade_level", L("chip", "0")).Set(2)
	r.Gauge("soak_uber_worst").Set(1.7e-5)
	h := r.Histogram("profiling_round_seconds", []float64{1, 10, 100}, L("chip", "1"))
	for _, v := range []float64{0.5, 3, 42, 999, 7} {
		h.Observe(v)
	}

	snap := r.Snapshot()
	enc := checkpoint.NewEncoder()
	snap.EncodeState(enc)

	decoded, err := DecodeSnapshot(checkpoint.NewDecoder(enc.Data()))
	if err != nil {
		t.Fatal(err)
	}
	fresh := New()
	fresh.MergeSnapshot(decoded)

	var want, got bytes.Buffer
	if err := snap.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Snapshot().WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("restored snapshot differs:\nwant %s\ngot  %s", want.String(), got.String())
	}

	// Restored metrics continue from where the original left off.
	fresh.Counter("soak_chips_total").Inc()
	if v := fresh.Counter("soak_chips_total").Value(); v != 9 {
		t.Errorf("counter after restore+inc = %d, want 9", v)
	}
	fresh.Histogram("profiling_round_seconds", []float64{1, 10, 100}, L("chip", "1")).Observe(5)
	if c := fresh.Histogram("profiling_round_seconds", []float64{1, 10, 100}, L("chip", "1")).Count(); c != 6 {
		t.Errorf("histogram count after restore+observe = %d, want 6", c)
	}
}

// TestRegistryMergeSnapshots checks the fold a soak applies as each chip's
// job returns: merging two chips' snapshots adds their counters and
// histogram buckets and keeps each chip's labelled gauge, in either order.
func TestRegistryMergeSnapshots(t *testing.T) {
	chip := func(id string, corrected int64, degrade float64, rounds ...float64) *Snapshot {
		r := New()
		r.Counter("scrub_corrected_total").Add(corrected)
		r.Gauge("firmware_degrade_level", L("chip", id)).Set(degrade)
		h := r.Histogram("core_profiling_round_seconds", []float64{1, 10})
		for _, v := range rounds {
			h.Observe(v)
		}
		return r.Snapshot()
	}
	a := chip("0", 5, 2, 0.5, 20)
	b := chip("1", 7, 1, 3)

	var orders [2]bytes.Buffer
	for k, pair := range [2][2]*Snapshot{{a, b}, {b, a}} {
		r := New()
		r.MergeSnapshot(pair[0])
		r.MergeSnapshot(pair[1])
		if err := r.Snapshot().WriteJSON(&orders[k]); err != nil {
			t.Fatal(err)
		}
		if v := r.Counter("scrub_corrected_total").Value(); v != 12 {
			t.Errorf("merged counter = %d, want 12", v)
		}
		h := r.Histogram("core_profiling_round_seconds", []float64{1, 10})
		if c := h.Count(); c != 3 {
			t.Errorf("merged histogram count = %d, want 3", c)
		}
		snap := r.Snapshot()
		hs := snap.Histograms[0]
		if hs.Buckets[0].Count != 1 || hs.Buckets[1].Count != 1 || hs.Overflow != 1 || hs.Sum != 23.5 {
			t.Errorf("merged histogram = %+v, want one per bucket, one overflow, sum 23.5", hs)
		}
		if len(snap.Gauges) != 2 || snap.Gauges[0].Value != 2 || snap.Gauges[1].Value != 1 {
			t.Errorf("merged gauges = %+v, want chip 0 at 2 and chip 1 at 1", snap.Gauges)
		}
	}
	if !bytes.Equal(orders[0].Bytes(), orders[1].Bytes()) {
		t.Errorf("merge depends on order:\n%s\n%s", orders[0].String(), orders[1].String())
	}
}

// TestTracerRestoreRoundTrip exercises both the non-full and the wrapped
// ring: a restored tracer must return the same Events() and keep evicting
// in the same order as its never-serialized twin.
func TestTracerRestoreRoundTrip(t *testing.T) {
	for _, emitted := range []int{3, 8, 13} {
		orig := NewTracer(8)
		twin := NewTracer(8)
		for i := 0; i < emitted; i++ {
			clock := float64(i) * 10
			orig.Emit(clock, "tick", fmt.Sprintf("n=%d", i), L("i", fmt.Sprint(i)))
			twin.Emit(clock, "tick", fmt.Sprintf("n=%d", i), L("i", fmt.Sprint(i)))
		}

		enc := checkpoint.NewEncoder()
		orig.EncodeState(enc)
		restored := NewTracer(8)
		if err := restored.RestoreState(checkpoint.NewDecoder(enc.Data())); err != nil {
			t.Fatalf("emitted=%d: %v", emitted, err)
		}

		// Keep emitting into both; the streams must stay identical.
		for i := 0; i < 5; i++ {
			clock := float64(emitted+i) * 10
			twin.Emit(clock, "post", "")
			restored.Emit(clock, "post", "")
		}
		if tw, re := fmt.Sprint(twin.Events()), fmt.Sprint(restored.Events()); tw != re {
			t.Errorf("emitted=%d: events diverge:\ntwin     %s\nrestored %s", emitted, tw, re)
		}
		if twin.Dropped() != restored.Dropped() {
			t.Errorf("emitted=%d: dropped %d vs %d", emitted, twin.Dropped(), restored.Dropped())
		}
	}
}

func TestTracerRestoreNil(t *testing.T) {
	enc := checkpoint.NewEncoder()
	var nilTracer *Tracer
	nilTracer.EncodeState(enc)
	fresh := NewTracer(4)
	if err := fresh.RestoreState(checkpoint.NewDecoder(enc.Data())); err != nil {
		t.Fatal(err)
	}
	if len(fresh.Events()) != 0 {
		t.Error("restoring a nil tracer state mutated the target")
	}
}
