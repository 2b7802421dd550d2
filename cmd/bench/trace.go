package main

import (
	"context"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"reaper/internal/stats"
	"reaper/internal/telemetry"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Parent   int    `json:"parent"` // -1 for a unit's root span
	Workload string `json:"workload"`
	Unit     int    `json:"unit"`
	StartUS  int64  `json:"start_us"`
	EndUS    int64  `json:"end_us"`
}

// tracer records spans and derived call counts for one traced phase, plus
// the deterministic telemetry registry the traced calls report into. Spans
// are appended under a mutex: traced calls run on the worker pool.
type tracer struct {
	workload string
	reg      *telemetry.Registry
	t0       time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]int64
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, reg: telemetry.New(), t0: time.Now(), counts: map[string]int64{}}
}

// begin opens a span named "<layer>.<call>" under parent (-1: none) and
// returns its ID; end closes it. Spans that start and end on different
// goroutines (a service program's lifetime) use these directly.
func (t *tracer) begin(name string, parent, unit int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Workload: t.workload, Unit: unit,
		StartUS: time.Since(t.t0).Microseconds()})
	return id
}

func (t *tracer) end(id int) {
	end := time.Since(t.t0).Microseconds()
	t.mu.Lock()
	t.spans[id].EndUS = end
	t.mu.Unlock()
}

// do runs fn inside a span, with the goroutine's pprof labels set to the
// span's layer and the workload. fn receives the span's ID so it can parent
// nested spans.
func (t *tracer) do(ctx context.Context, parent, unit int, name string, fn func(ctx context.Context, id int)) {
	id := t.begin(name, parent, unit)
	layer, _, _ := strings.Cut(name, ".")
	pprof.Do(ctx, pprof.Labels("layer", layer, "workload", t.workload), func(ctx context.Context) { fn(ctx, id) })
	t.end(id)
}

// add counts n calls that have no span of their own (calls inside a library
// function the benchmark cannot wrap, derived from the workload's layout).
func (t *tracer) add(name string, n int64) {
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// totals folds the spans into per-name call counts and busy seconds, and
// the busy seconds of spans whose parent has the given name.
type totals struct {
	calls map[string]int64
	busy  map[string]float64
	// childBusy[p][c] is the busy seconds of spans named c under spans named p.
	childBusy map[string]map[string]float64
}

func (t *tracer) totals() totals {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := totals{calls: map[string]int64{}, busy: map[string]float64{}, childBusy: map[string]map[string]float64{}}
	for name, n := range t.counts {
		out.calls[name] += n
	}
	for _, s := range t.spans {
		d := float64(s.EndUS-s.StartUS) / 1e6
		out.calls[s.Name]++
		out.busy[s.Name] += d
		if s.Parent >= 0 {
			p := t.spans[s.Parent].Name
			if out.childBusy[p] == nil {
				out.childBusy[p] = map[string]float64{}
			}
			out.childBusy[p][s.Name] += d
		}
	}
	return out
}

// counter sums a counter over every label set in the snapshot.
func counter(snap *telemetry.Snapshot, name string) int64 {
	var n int64
	for _, c := range snap.Counters {
		if c.Name == name {
			n += c.Value
		}
	}
	return n
}

// phase holds the host-side measurements of one timed run of units.
type phase struct {
	latMS      []float64 // per unit
	wall       float64   // seconds
	cpu        float64   // process CPU seconds
	allocBytes uint64
	heapP95    float64 // bytes
}

// meter samples the host measurements around a phase.
type meter struct {
	start  time.Time
	cpu0   float64
	alloc0 uint64
}

func startMeter() *meter {
	return &meter{start: time.Now(), cpu0: cpuSeconds(), alloc0: readHeap().allocs}
}

func (m *meter) stop(p *phase) {
	p.wall = time.Since(m.start).Seconds()
	p.cpu = cpuSeconds() - m.cpu0
	p.allocBytes = readHeap().allocs - m.alloc0
}

// heapSampleInterval is how often the live heap is read while a phase runs:
// well below the time between GC cycles, so every cycle's live heap is seen.
const heapSampleInterval = 5 * time.Millisecond

// liveHeapP95 reads the live heap every heapSampleInterval until stop is
// closed and returns the 95th percentile of the samples, in bytes: the heap
// the phase holds at its high end, without the rare GC cycle that happens to
// mark at an unlucky moment. It never forces a GC.
func liveHeapP95(stop <-chan struct{}) float64 {
	tick := time.NewTicker(heapSampleInterval)
	defer tick.Stop()
	var samples []float64
	for {
		samples = append(samples, float64(readHeap().live))
		select {
		case <-stop:
			return stats.Percentile(samples, 95)
		case <-tick.C:
		}
	}
}

type heapSample struct{ live, allocs uint64 }

// readHeap reads the live heap (as marked by the last GC) and the cumulative
// allocated bytes.
func readHeap() heapSample {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return heapSample{live: s[0].Value.Uint64(), allocs: s[1].Value.Uint64()}
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// endToEnd sets the end-to-end metrics of a timed phase. The gated tail is
// p90; p99 and the number of units above it are reported beside it.
func endToEnd(rep *report, setups []float64, p phase) {
	const mib = 1 << 20
	n := float64(len(p.latMS))
	rep.UnitMS = p.latMS
	rep.LatencyP99MS = stats.Percentile(p.latMS, 99)
	rep.TailSamples = 0
	for _, l := range p.latMS {
		if l > rep.LatencyP99MS {
			rep.TailSamples++
		}
	}
	rep.e2e("setup_s", "s", stats.Percentile(setups, 50))
	rep.e2e("units_per_s", "1/s", n/p.wall)
	rep.e2e("unit_latency_p50_ms", "ms", stats.Percentile(p.latMS, 50))
	rep.e2e("latency_p90_ms", "ms", stats.Percentile(p.latMS, 90))
	rep.e2e("live_heap_p95_mib", "MiB", p.heapP95/mib)
	rep.e2e("alloc_mib_per_unit", "MiB", float64(p.allocBytes)/mib/n)
}

// sinceMS is the milliseconds elapsed since t.
func sinceMS(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// medianOf times fn reps times and returns the median in milliseconds.
func medianOf(reps int, fn func() error) (float64, error) {
	ms := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ms = append(ms, sinceMS(t))
	}
	return stats.Percentile(ms, 50), nil
}
