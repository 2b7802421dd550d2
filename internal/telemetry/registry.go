package telemetry

import (
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension of a metric or trace event. Labels are
// plain pairs (never maps) so no code path ever iterates a map to render
// them.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind classifies a metric.
type Kind string

// The three metric kinds the registry supports.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// metric is the shared storage behind every handle type. Counters and
// histogram cells mutate only through atomic integer adds, so concurrent
// writers from a worker pool commute; gauges are last-write-wins and need a
// single logical owner (see the package comment).
type metric struct {
	name   string
	kind   Kind
	labels []Label // sorted by key, then value

	count     atomic.Int64 // counter value; histogram observation count
	gaugeBits atomic.Uint64
	sumMicros atomic.Int64 // histogram sum, fixed-point micro-units

	bounds   []float64 // histogram upper bounds, strictly increasing
	cells    []atomic.Int64
	overflow atomic.Int64 // observations above the last bound
}

// Counter is a monotonically increasing integer metric. The nil Counter is
// a no-op.
type Counter struct{ m *metric }

// Add increases the counter by n (negative n is ignored: counters are
// monotone).
func (c *Counter) Add(n int64) {
	if c == nil || c.m == nil || n <= 0 {
		return
	}
	c.m.count.Add(n)
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Gauge is a last-write-wins float metric. Gauges must have a single
// logical owner (use per-instance labels when many instances report); the
// nil Gauge is a no-op.
type Gauge struct{ m *metric }

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g == nil || g.m == nil {
		return
	}
	g.m.gaugeBits.Store(math.Float64bits(v))
}

// Histogram is a fixed-bucket distribution metric. Observations land in the
// first bucket whose upper bound is >= the value; values above every bound
// are counted in the overflow cell. The sum is accumulated in fixed-point
// micro-units so concurrent observation order cannot perturb it. The nil
// Histogram is a no-op.
type Histogram struct{ m *metric }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil || h.m == nil {
		return
	}
	m := h.m
	m.count.Add(1)
	m.sumMicros.Add(int64(math.Round(v * 1e6)))
	for i, b := range m.bounds {
		if v <= b {
			m.cells[i].Add(1)
			return
		}
	}
	m.overflow.Add(1)
}

// Registry holds the metrics of one run. Handles are get-or-create: asking
// twice for the same (name, labels) returns the same storage. The nil
// *Registry is a valid no-op registry — every handle it returns discards
// writes — so instrumented code never branches on "is telemetry enabled".
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// canonicalLabels returns a sorted copy of labels.
func canonicalLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := slices.Clone(labels)
	slices.SortFunc(out, func(a, b Label) int {
		if a.Key != b.Key {
			return strings.Compare(a.Key, b.Key)
		}
		return strings.Compare(a.Value, b.Value)
	})
	return out
}

// metricKey builds the registry key for a name and canonical label set.
func metricKey(name string, labels []Label) string {
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0)
		b.WriteString(l.Key)
		b.WriteByte(1)
		b.WriteString(l.Value)
	}
	return b.String()
}

// lookup returns the metric for (name, labels), creating it with the given
// kind and bounds on first use. A kind conflict (the name+labels exist with
// a different kind, or a histogram re-registered with different bounds)
// yields nil, which the handle types treat as a no-op — an instrumentation
// bug must not crash or corrupt a campaign.
func (r *Registry) lookup(kind Kind, name string, bounds []float64, labels []Label) *metric {
	if r == nil {
		return nil
	}
	cl := canonicalLabels(labels)
	key := metricKey(name, cl)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[key]; ok {
		if m.kind != kind || (kind == KindHistogram && !slices.Equal(m.bounds, bounds)) {
			return nil
		}
		return m
	}
	m := &metric{name: name, kind: kind, labels: cl, bounds: bounds}
	if kind == KindHistogram {
		m.cells = make([]atomic.Int64, len(bounds))
	}
	r.metrics[key] = m
	return m
}

// Counter returns the counter for (name, labels), creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return &Counter{m: r.lookup(KindCounter, name, nil, labels)}
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return &Gauge{m: r.lookup(KindGauge, name, nil, labels)}
}

// Histogram returns the histogram for (name, labels) with the given bucket
// upper bounds, creating it on first use. Bounds are sorted and deduplicated;
// an empty bounds slice yields a count+sum-only histogram.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) > 0 {
		bounds = slices.Clone(bounds)
		slices.Sort(bounds)
		bounds = slices.Compact(bounds)
	}
	return &Histogram{m: r.lookup(KindHistogram, name, bounds, labels)}
}
