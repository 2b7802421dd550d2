package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"strings"
	"sync"

	"reaper/internal/checkpoint"
)

// Event is one structured trace record. Clock is logical (simulated)
// time in seconds since the emitting station's epoch — never wall time —
// so traces replay bit-for-bit at a pinned seed. Seq is the emission index
// within the event's tracer, and Source names the tracer after a Merge
// (e.g. "chip0"); both keep merged fleet traces totally ordered.
type Event struct {
	Clock  float64 `json:"clock"`
	Source string  `json:"source,omitempty"`
	Kind   string  `json:"kind"`
	Detail string  `json:"detail,omitempty"`
	Attrs  []Label `json:"attrs,omitempty"`
	Seq    int64   `json:"seq"`
}

// Tracer is a bounded ring buffer of trace events. It records arrival
// order, so each tracer must have a single logical owner (one chip, one
// station, one command); deterministic fleet traces come from one tracer
// per chip merged with Merge. The nil Tracer is a no-op.
type Tracer struct {
	mu      sync.Mutex
	cap     int
	events  []Event // ring storage
	next    int     // ring write position once len(events) == cap
	seq     int64
	dropped int64
}

// DefaultTraceCapacity bounds a tracer when the caller passes a
// non-positive capacity.
const DefaultTraceCapacity = 4096

// NewTracer returns a tracer keeping the most recent capacity events
// (DefaultTraceCapacity when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{cap: capacity}
}

// Emit appends one event, evicting the oldest when the ring is full. Clock
// is the emitter's simulated time in seconds.
func (t *Tracer) Emit(clock float64, kind, detail string, attrs ...Label) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e := Event{Clock: clock, Kind: kind, Detail: detail, Attrs: attrs, Seq: t.seq}
	t.seq++
	if len(t.events) < t.cap {
		t.events = append(t.events, e)
		return
	}
	t.events[t.next] = e
	t.next = (t.next + 1) % t.cap
	t.dropped++
}

// Events returns the buffered events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.events))
	out = append(out, t.events[t.next:]...)
	out = append(out, t.events[:t.next]...)
	return out
}

// Trace pairs a source name with its event stream, for Merge.
type Trace struct {
	Source string
	Events []Event
}

// Merge combines per-source event streams into one deterministic timeline:
// each event is stamped with its source, and the result is ordered by
// (clock, source, seq). Because every input stream is itself deterministic,
// the merged trace is byte-identical regardless of the worker interleaving
// that produced the streams.
func Merge(traces ...Trace) []Event {
	var n int
	for _, tr := range traces {
		n += len(tr.Events)
	}
	out := make([]Event, 0, n)
	for _, tr := range traces {
		for _, e := range tr.Events {
			e.Source = tr.Source
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b Event) int {
		switch {
		case a.Clock < b.Clock:
			return -1
		case a.Clock > b.Clock:
			return 1
		}
		if a.Source != b.Source {
			return strings.Compare(a.Source, b.Source)
		}
		switch {
		case a.Seq < b.Seq:
			return -1
		case a.Seq > b.Seq:
			return 1
		}
		return 0
	})
	return out
}

// WriteJSONL writes events one JSON object per line — the -trace-out file
// format, loadable with `jq` or a line-at-a-time reader.
func WriteJSONL(w io.Writer, events []Event) error {
	for _, e := range events {
		enc, err := json.Marshal(e)
		if err != nil {
			return err
		}
		enc = append(enc, '\n')
		if _, err := w.Write(enc); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSONLFile writes events to path in WriteJSONL's format — the
// -trace-out file — atomically (checkpoint.WriteFileAtomic).
func WriteJSONLFile(path string, events []Event) error {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		return err
	}
	return checkpoint.WriteFileAtomic(path, buf.Bytes(), 0o644)
}
