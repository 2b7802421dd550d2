package telemetry

import (
	"fmt"
	"math"

	"reaper/internal/checkpoint"
)

// This file is the checkpoint surface of the telemetry layer. A resumed
// campaign must report the same counters, gauges, histograms and traces as
// an uninterrupted one, so each soak chip's registry and tracer travel in
// its checkpoint and are rebuilt exactly on resume.

// sanity ceilings for decoded collection lengths: values beyond these
// indicate a corrupted blob, not a real campaign.
const (
	maxRestoreSeries = 1 << 20
	maxRestoreEvents = 1 << 24
	maxRestoreLabels = 1 << 10
)

// MergeSnapshot adds a snapshot's series into the registry, creating each
// metric on first use: counters and histograms add (count, sum, buckets and
// overflow), and gauges are set. Gauges have one owner each (a soak chip's
// carry its chip label), so merging the snapshots of independent owners
// gives the same registry in any order. Merging into a fresh registry
// restores the snapshot exactly; a series whose kind or bounds conflict
// with the registry's is skipped, as a conflicting handle is.
func (r *Registry) MergeSnapshot(s *Snapshot) {
	if r == nil || s == nil {
		return
	}
	for _, c := range s.Counters {
		if m := r.lookup(KindCounter, c.Name, nil, c.Labels); m != nil {
			m.count.Add(c.Value)
		}
	}
	for _, g := range s.Gauges {
		if m := r.lookup(KindGauge, g.Name, nil, g.Labels); m != nil {
			m.gaugeBits.Store(math.Float64bits(g.Value))
		}
	}
	for _, h := range s.Histograms {
		bounds := make([]float64, len(h.Buckets))
		for i, b := range h.Buckets {
			bounds[i] = b.LE
		}
		m := r.lookup(KindHistogram, h.Name, bounds, h.Labels)
		if m == nil {
			continue
		}
		m.count.Add(h.Count)
		// Observe accumulates in fixed-point micro-units; Sum is the
		// micro-unit total divided by 1e6, so rounding recovers it exactly
		// (totals stay far below 2^53 micro-units).
		m.sumMicros.Add(int64(math.Round(h.Sum * 1e6)))
		for i := range h.Buckets {
			m.cells[i].Add(h.Buckets[i].Count)
		}
		m.overflow.Add(h.Overflow)
	}
}

func encodeLabels(e *checkpoint.Encoder, labels []Label) {
	e.Len(len(labels))
	for _, l := range labels {
		e.Str(l.Key)
		e.Str(l.Value)
	}
}

func decodeLabels(d *checkpoint.Decoder) []Label {
	n := d.Len(maxRestoreLabels)
	if n == 0 {
		return nil
	}
	out := make([]Label, n)
	for i := range out {
		out[i].Key = d.Str()
		out[i].Value = d.Str()
	}
	return out
}

// EncodeState serializes the snapshot with the checkpoint binary codec
// (JSON cannot carry non-finite gauge values bit-exactly).
func (s *Snapshot) EncodeState(e *checkpoint.Encoder) {
	e.Section("telemetry.snapshot")
	e.Len(len(s.Counters))
	for _, c := range s.Counters {
		e.Str(c.Name)
		encodeLabels(e, c.Labels)
		e.I64(c.Value)
	}
	e.Len(len(s.Gauges))
	for _, g := range s.Gauges {
		e.Str(g.Name)
		encodeLabels(e, g.Labels)
		e.F64(g.Value)
	}
	e.Len(len(s.Histograms))
	for _, h := range s.Histograms {
		e.Str(h.Name)
		encodeLabels(e, h.Labels)
		e.I64(h.Count)
		e.F64(h.Sum)
		e.I64(h.Overflow)
		e.Len(len(h.Buckets))
		for _, b := range h.Buckets {
			e.F64(b.LE)
			e.I64(b.Count)
		}
	}
}

// DecodeSnapshot reads a snapshot serialized by EncodeState.
func DecodeSnapshot(d *checkpoint.Decoder) (*Snapshot, error) {
	s := &Snapshot{}
	d.Section("telemetry.snapshot")
	nc := d.Len(maxRestoreSeries)
	for i := 0; i < nc; i++ {
		var c CounterSnapshot
		c.Name = d.Str()
		c.Labels = decodeLabels(d)
		c.Value = d.I64()
		s.Counters = append(s.Counters, c)
	}
	ng := d.Len(maxRestoreSeries)
	for i := 0; i < ng; i++ {
		var g GaugeSnapshot
		g.Name = d.Str()
		g.Labels = decodeLabels(d)
		g.Value = d.F64()
		s.Gauges = append(s.Gauges, g)
	}
	nh := d.Len(maxRestoreSeries)
	for i := 0; i < nh; i++ {
		var h HistogramSnapshot
		h.Name = d.Str()
		h.Labels = decodeLabels(d)
		h.Count = d.I64()
		h.Sum = d.F64()
		h.Overflow = d.I64()
		nb := d.Len(maxRestoreSeries)
		for j := 0; j < nb; j++ {
			var b Bucket
			b.LE = d.F64()
			b.Count = d.I64()
			h.Buckets = append(h.Buckets, b)
		}
		s.Histograms = append(s.Histograms, h)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: snapshot decode: %w", err)
	}
	return s, nil
}

// EncodeState serializes the tracer's ring (oldest first), sequence counter
// and drop count.
func (t *Tracer) EncodeState(e *checkpoint.Encoder) {
	e.Section("telemetry.tracer")
	if t == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	t.mu.Lock()
	defer t.mu.Unlock()
	e.Int(t.cap)
	e.I64(t.seq)
	e.I64(t.dropped)
	ordered := append(append([]Event(nil), t.events[t.next:]...), t.events[:t.next]...)
	e.Len(len(ordered))
	for _, ev := range ordered {
		e.F64(ev.Clock)
		e.Str(ev.Source)
		e.Str(ev.Kind)
		e.Str(ev.Detail)
		encodeLabels(e, ev.Attrs)
		e.I64(ev.Seq)
	}
}

// RestoreState loads a tracer state serialized by EncodeState into t,
// replacing its buffer. The restored ring has its oldest event at index 0
// (next = 0), which is observation-equivalent to the original ring: Events
// returns the same sequence and subsequent Emits evict in the same order.
func (t *Tracer) RestoreState(d *checkpoint.Decoder) error {
	d.Section("telemetry.tracer")
	present := d.Bool()
	if !present {
		if err := d.Err(); err != nil {
			return fmt.Errorf("telemetry: tracer decode: %w", err)
		}
		return nil
	}
	capacity := d.Int()
	seq := d.I64()
	dropped := d.I64()
	n := d.Len(maxRestoreEvents)
	events := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		var ev Event
		ev.Clock = d.F64()
		ev.Source = d.Str()
		ev.Kind = d.Str()
		ev.Detail = d.Str()
		ev.Attrs = decodeLabels(d)
		ev.Seq = d.I64()
		events = append(events, ev)
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("telemetry: tracer decode: %w", err)
	}
	if t == nil {
		return nil
	}
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	if len(events) > capacity {
		events = events[len(events)-capacity:]
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cap = capacity
	t.events = events
	t.next = 0
	t.seq = seq
	t.dropped = dropped
	return nil
}
