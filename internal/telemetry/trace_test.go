package telemetry

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"testing"
)

// Dropped returns how many events the ring has evicted.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		tr.Emit(float64(i), "tick", "")
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("want 3 buffered events, got %d", len(evs))
	}
	for i, e := range evs {
		if want := float64(i + 2); e.Clock != want {
			t.Errorf("event %d clock = %v, want %v (oldest-first after eviction)", i, e.Clock, want)
		}
	}
	if tr.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", tr.Dropped())
	}
	if evs[0].Seq != 2 || evs[2].Seq != 4 {
		t.Errorf("seq not preserved across eviction: %+v", evs)
	}
}

func TestMergeIsDeterministicTimeline(t *testing.T) {
	a := NewTracer(0)
	b := NewTracer(0)
	a.Emit(1.0, "x", "")
	a.Emit(3.0, "x", "")
	b.Emit(1.0, "y", "")
	b.Emit(2.0, "y", "", L("cells", "4"))
	merged := Merge(Trace{"chip1", b.Events()}, Trace{"chip0", a.Events()})
	var got []string
	for _, e := range merged {
		got = append(got, e.Source+":"+e.Kind)
	}
	want := "chip0:x chip1:y chip1:y chip0:x" // clock order, source breaks ties
	if strings.Join(got, " ") != want {
		t.Errorf("merged order = %v, want %s", got, want)
	}

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, merged); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 JSONL lines, got %d", len(lines))
	}
	if !strings.Contains(lines[2], `"attrs":[{"key":"cells","value":"4"}]`) {
		t.Errorf("attrs not serialized: %s", lines[2])
	}
}

func TestContextCarriesRegistry(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Error("empty context returned a registry")
	}
	reg := New()
	ctx := WithRegistry(context.Background(), reg)
	if FromContext(ctx) != reg {
		t.Error("registry did not round-trip through context")
	}
	if got := WithRegistry(ctx, nil); got != ctx {
		t.Error("nil registry should leave the context untouched")
	}
}

func TestPprofServerServesMetrics(t *testing.T) {
	reg := New()
	reg.Counter("up").Inc()
	srv, err := StartServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"up"`) {
		t.Errorf("/metrics missing counter: %s", buf.String())
	}
	resp2, err := http.Get("http://" + srv.Addr() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline status = %d", resp2.StatusCode)
	}
}
