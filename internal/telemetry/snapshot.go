package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"slices"
	"strings"

	"reaper/internal/checkpoint"
)

// CounterSnapshot is one counter series in a Snapshot.
type CounterSnapshot struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  int64   `json:"value"`
}

// GaugeSnapshot is one gauge series in a Snapshot.
type GaugeSnapshot struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// Bucket is one histogram cell: the count of observations at or below the
// upper bound LE that did not fit an earlier (smaller) bucket. Buckets are
// non-cumulative; observations above the last bound land in the histogram's
// Overflow count, so there is no +Inf bound to serialize.
type Bucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistogramSnapshot is one histogram series in a Snapshot.
type HistogramSnapshot struct {
	Name     string   `json:"name"`
	Labels   []Label  `json:"labels,omitempty"`
	Count    int64    `json:"count"`
	Sum      float64  `json:"sum"`
	Buckets  []Bucket `json:"buckets,omitempty"`
	Overflow int64    `json:"overflow,omitempty"`
}

// Snapshot is a point-in-time copy of a registry, ordered by metric name
// and then canonical label set, so its JSON encoding is byte-identical for
// identical metric values regardless of registration or update order.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters,omitempty"`
	Gauges     []GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
}

// labelsLess orders two canonical label sets lexicographically.
func labelsLess(a, b []Label) int {
	return slices.CompareFunc(a, b, func(x, y Label) int {
		if x.Key != y.Key {
			return strings.Compare(x.Key, y.Key)
		}
		return strings.Compare(x.Value, y.Value)
	})
}

// Snapshot copies the registry's current state. Concurrent writers may race
// individual reads (a counter bumped mid-snapshot), but a snapshot taken
// after all writers have finished — the only pinned case — is exact.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	slices.SortFunc(ms, func(a, b *metric) int {
		if a.name != b.name {
			return strings.Compare(a.name, b.name)
		}
		return labelsLess(a.labels, b.labels)
	})
	for _, m := range ms {
		switch m.kind {
		case KindCounter:
			snap.Counters = append(snap.Counters, CounterSnapshot{
				Name: m.name, Labels: m.labels, Value: m.count.Load(),
			})
		case KindGauge:
			snap.Gauges = append(snap.Gauges, GaugeSnapshot{
				Name: m.name, Labels: m.labels,
				Value: math.Float64frombits(m.gaugeBits.Load()),
			})
		case KindHistogram:
			hs := HistogramSnapshot{
				Name: m.name, Labels: m.labels,
				Count:    m.count.Load(),
				Sum:      float64(m.sumMicros.Load()) / 1e6,
				Overflow: m.overflow.Load(),
			}
			for i, b := range m.bounds {
				hs.Buckets = append(hs.Buckets, Bucket{LE: b, Count: m.cells[i].Load()})
			}
			snap.Histograms = append(snap.Histograms, hs)
		}
	}
	return snap
}

// WriteJSON writes the snapshot as indented JSON with a trailing newline —
// the -metrics-out file format.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	_, err = w.Write(enc)
	return err
}

// WriteFile writes the snapshot to path in WriteJSON's format — the
// -metrics-out file — atomically (checkpoint.WriteFileAtomic), so a crash
// mid-write never leaves a truncated file behind.
func (s *Snapshot) WriteFile(path string) error {
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		return err
	}
	return checkpoint.WriteFileAtomic(path, buf.Bytes(), 0o644)
}
