package telemetry

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

// Counter returns the snapshotted value of the named counter series, or 0
// if absent — a convenience for tests and report assembly.
func (s *Snapshot) Counter(name string, labels ...Label) int64 {
	cl := canonicalLabels(labels)
	for _, c := range s.Counters {
		if c.Name == name && labelsLess(c.Labels, cl) == 0 {
			return c.Value
		}
	}
	return 0
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 {
	if h == nil || h.m == nil {
		return 0
	}
	return h.m.count.Load()
}

// Value returns the last value Set.
func (g *Gauge) Value() float64 {
	if g == nil || g.m == nil {
		return 0
	}
	return math.Float64frombits(g.m.gaugeBits.Load())
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil || c.m == nil {
		return 0
	}
	return c.m.count.Load()
}

func TestCounterGaugeHistogramBasics(t *testing.T) {
	reg := New()
	c := reg.Counter("jobs_total", L("figure", "fig9"))
	c.Inc()
	c.Add(4)
	c.Add(-7) // counters are monotone; negative adds are dropped
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if got := reg.Counter("jobs_total", L("figure", "fig9")).Value(); got != 5 {
		t.Errorf("re-lookup returned fresh storage: %d", got)
	}

	g := reg.Gauge("interval_ms")
	g.Set(1024)
	g.Set(512)
	if got := g.Value(); got != 512 {
		t.Errorf("gauge = %v, want 512", got)
	}

	h := reg.Histogram("latency", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 9} {
		h.Observe(v)
	}
	snap := reg.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("want 1 histogram, got %d", len(snap.Histograms))
	}
	hs := snap.Histograms[0]
	if hs.Count != 5 || hs.Overflow != 1 {
		t.Errorf("count/overflow = %d/%d, want 5/1", hs.Count, hs.Overflow)
	}
	wantCells := []int64{2, 1, 1} // <=1: {0.5,1}; <=2: {1.5}; <=4: {3}
	for i, b := range hs.Buckets {
		if b.Count != wantCells[i] {
			t.Errorf("bucket le=%v count = %d, want %d", b.LE, b.Count, wantCells[i])
		}
	}
	if hs.Sum != 15 {
		t.Errorf("sum = %v, want 15", hs.Sum)
	}
}

func TestNilRegistryAndHandlesAreNoOps(t *testing.T) {
	var reg *Registry
	reg.Counter("c").Inc()
	reg.Gauge("g").Set(1)
	reg.Histogram("h", []float64{1}).Observe(2)
	snap := reg.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Error("nil registry produced metrics")
	}
	var tr *Tracer
	tr.Emit(0, "kind", "detail")
	if tr.Events() != nil || tr.Dropped() != 0 {
		t.Error("nil tracer recorded events")
	}
}

func TestKindConflictYieldsNoOpHandle(t *testing.T) {
	reg := New()
	reg.Counter("m").Inc()
	g := reg.Gauge("m") // same name, different kind
	g.Set(3)
	if got := g.Value(); got != 0 {
		t.Errorf("conflicting gauge retained value %v", got)
	}
	h1 := reg.Histogram("h", []float64{1, 2})
	h1.Observe(1)
	h2 := reg.Histogram("h", []float64{1, 2, 3}) // different bounds
	h2.Observe(1)
	if got := h1.Count(); got != 1 {
		t.Errorf("original histogram count = %d, want 1", got)
	}
	if got := h2.Count(); got != 0 {
		t.Errorf("conflicting histogram recorded %d observations", got)
	}
}

// TestSnapshotDeterministicOrder registers series in two different orders
// and checks the serialized snapshots are byte-identical.
func TestSnapshotDeterministicOrder(t *testing.T) {
	build := func(order []int) string {
		reg := New()
		series := []func(){
			func() { reg.Counter("b_total", L("x", "1")).Add(2) },
			func() { reg.Counter("b_total", L("x", "0")).Add(3) },
			func() { reg.Counter("a_total").Add(1) },
			func() { reg.Gauge("z", L("chip", "1")).Set(4) },
			func() { reg.Histogram("h", []float64{1}).Observe(0.5) },
		}
		for _, i := range order {
			series[i]()
		}
		var buf bytes.Buffer
		if err := reg.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := build([]int{0, 1, 2, 3, 4})
	b := build([]int{4, 3, 2, 1, 0})
	if a != b {
		t.Errorf("snapshot depends on registration order:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, `"a_total"`) {
		t.Errorf("snapshot missing series:\n%s", a)
	}
}

// TestConcurrentWritersConverge is the race-detector coverage for the
// registry: many goroutines hammer the same counter and histogram (and
// per-writer gauges), and the final snapshot must equal the sequential
// outcome regardless of interleaving. Test files are exempt from the
// naked-goroutine rule; shipped code reaches this path through
// internal/parallel.
func TestConcurrentWritersConverge(t *testing.T) {
	const writers, perWriter = 16, 1000
	reg := New()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("hits_total")
			h := reg.Histogram("obs", []float64{250, 500, 750})
			g := reg.Gauge("last", L("writer", string(rune('a'+w))))
			for i := 0; i < perWriter; i++ {
				c.Inc()
				h.Observe(float64(i))
				g.Set(float64(i))
			}
		}(w)
	}
	wg.Wait()
	snap := reg.Snapshot()
	if got := snap.Counter("hits_total"); got != writers*perWriter {
		t.Errorf("counter = %d, want %d", got, writers*perWriter)
	}
	if len(snap.Histograms) != 1 {
		t.Fatalf("want 1 histogram, got %d", len(snap.Histograms))
	}
	h := snap.Histograms[0]
	if h.Count != writers*perWriter {
		t.Errorf("histogram count = %d, want %d", h.Count, writers*perWriter)
	}
	// Each writer observes 0..999: 251 land <=250, 250 each in the next two
	// cells, 249 overflow.
	want := []int64{251 * writers, 250 * writers, 250 * writers}
	for i, b := range h.Buckets {
		if b.Count != want[i] {
			t.Errorf("bucket le=%v = %d, want %d", b.LE, b.Count, want[i])
		}
	}
	if h.Overflow != 249*writers {
		t.Errorf("overflow = %d, want %d", h.Overflow, 249*writers)
	}
	if len(snap.Gauges) != writers {
		t.Errorf("want %d gauge series, got %d", writers, len(snap.Gauges))
	}
	for _, g := range snap.Gauges {
		if g.Value != perWriter-1 {
			t.Errorf("gauge %v = %v, want %d", g.Labels, g.Value, perWriter-1)
		}
	}
}
