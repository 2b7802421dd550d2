package reaperd_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"reaper/internal/reaperd"
	"reaper/internal/telemetry"
)

// deviceProgram is a small single-chip device program that finishes in
// milliseconds.
const deviceProgram = `{
  "version": 1,
  "name": "smoke",
  "seed": 7,
  "fleet": {"bits": 1048576, "weak_scale": 40},
  "stages": [
    {"type": "write_pattern", "pattern": "checker"},
    {"type": "disable_refresh"},
    {"type": "wait", "seconds": 2},
    {"type": "enable_refresh"},
    {"type": "read_compare", "label": "after-2s"},
    {"type": "classify", "target_interval_s": 1.024, "target_temp_c": 45}
  ],
  "output": {"failing_bits": 8, "include_metrics": true}
}`

// env is one live server: HTTP via httptest, scheduler on a test
// goroutine, both torn down by t.Cleanup.
type env struct {
	t   *testing.T
	srv *reaperd.Server
	ts  *httptest.Server
}

func newEnv(t *testing.T, cfg reaperd.Config) *env {
	t.Helper()
	s := reaperd.New(cfg)
	ts := httptest.NewServer(s.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
		ts.Close()
	})
	return &env{t: t, srv: s, ts: ts}
}

// idleEnv is a server whose scheduler is NOT running: submissions stay
// queued, which makes queue-state tests deterministic.
func idleEnv(t *testing.T, cfg reaperd.Config) *env {
	t.Helper()
	ts := httptest.NewServer(reaperd.New(cfg).Handler())
	t.Cleanup(ts.Close)
	return &env{t: t, ts: ts}
}

func (e *env) do(method, path string, body []byte) (int, []byte) {
	e.t.Helper()
	req, err := http.NewRequest(method, e.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		e.t.Fatalf("NewRequest: %v", err)
	}
	resp, err := e.ts.Client().Do(req)
	if err != nil {
		e.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		e.t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, out
}

func (e *env) submit(program string, wantCode int) reaperd.Status {
	e.t.Helper()
	code, body := e.do(http.MethodPost, "/v1/programs", []byte(program))
	if code != wantCode {
		e.t.Fatalf("submit: code %d, want %d (body %s)", code, wantCode, body)
	}
	var st reaperd.Status
	if wantCode == http.StatusAccepted {
		if err := json.Unmarshal(body, &st); err != nil {
			e.t.Fatalf("submit response: %v", err)
		}
	}
	return st
}

// waitTerminal polls until the program leaves queued/running.
func (e *env) waitTerminal(id string) reaperd.Status {
	e.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, body := e.do(http.MethodGet, "/v1/programs/"+id, nil)
		if code != http.StatusOK {
			e.t.Fatalf("status: code %d (body %s)", code, body)
		}
		var st reaperd.Status
		if err := json.Unmarshal(body, &st); err != nil {
			e.t.Fatalf("status response: %v", err)
		}
		switch st.State {
		case reaperd.StateDone, reaperd.StateFailed, reaperd.StateCancelled:
			return st
		}
		if time.Now().After(deadline) {
			e.t.Fatalf("program %s stuck in %s", id, st.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubmitPollResult is the acceptance-criteria check: submit → poll →
// result round trip, and a second submission of the same program bytes
// returns a byte-identical result document.
func TestSubmitPollResult(t *testing.T) {
	e := newEnv(t, reaperd.Config{JobWorkers: 2})

	st := e.submit(deviceProgram, http.StatusAccepted)
	if st.ID == "" || st.Kind != "device" || st.Seed != 7 || st.Name != "smoke" {
		t.Fatalf("queued status: %+v", st)
	}
	if st.Total != 6 {
		t.Fatalf("total %d, want 6 (1 chip x 6 stages)", st.Total)
	}
	fin := e.waitTerminal(st.ID)
	if fin.State != reaperd.StateDone {
		t.Fatalf("final state %s (error %q)", fin.State, fin.Error)
	}
	if fin.Done != fin.Total {
		t.Fatalf("done %d != total %d", fin.Done, fin.Total)
	}
	code, first := e.do(http.MethodGet, "/v1/programs/"+st.ID+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("result: code %d", code)
	}
	if !strings.Contains(string(first), `"kind": "device"`) && !strings.Contains(string(first), `"kind":"device"`) {
		t.Fatalf("result lacks kind: %s", first)
	}

	// Same bytes, fresh submission, concurrent-tenant-independent result.
	st2 := e.submit(deviceProgram, http.StatusAccepted)
	if st2.ID == st.ID {
		t.Fatalf("IDs not unique")
	}
	fin2 := e.waitTerminal(st2.ID)
	if fin2.State != reaperd.StateDone {
		t.Fatalf("second run state %s (error %q)", fin2.State, fin2.Error)
	}
	_, second := e.do(http.MethodGet, "/v1/programs/"+st2.ID+"/result", nil)
	if !bytes.Equal(first, second) {
		t.Fatalf("same program, different result bytes:\n%s\nvs\n%s", first, second)
	}
}

// TestSubmitRejections covers the 400 paths and their error envelope.
func TestSubmitRejections(t *testing.T) {
	e := idleEnv(t, reaperd.Config{})
	for name, prog := range map[string]string{
		"not json":      "parsnips",
		"unknown stage": `{"version":1,"seed":1,"stages":[{"type":"warp_drive"}]}`,
		"unknown field": `{"version":1,"seed":1,"bogus":true,"stages":[{"type":"disable_refresh"}]}`,
	} {
		code, body := e.do(http.MethodPost, "/v1/programs", []byte(prog))
		if code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400", name, code)
		}
		var er reaperd.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: bad error envelope %s", name, body)
		}
	}
}

// TestUnknownProgram covers 404 on every per-program endpoint.
func TestUnknownProgram(t *testing.T) {
	e := idleEnv(t, reaperd.Config{})
	for _, req := range [][2]string{
		{http.MethodGet, "/v1/programs/p999999"},
		{http.MethodGet, "/v1/programs/p999999/result"},
		{http.MethodGet, "/v1/programs/p999999/events"},
		{http.MethodPost, "/v1/programs/p999999/cancel"},
	} {
		if code, _ := e.do(req[0], req[1], nil); code != http.StatusNotFound {
			t.Errorf("%s %s: code %d, want 404", req[0], req[1], code)
		}
	}
}

// TestQueuedLifecycle uses an idle scheduler to pin the queued-state
// behaviors: result 409, cancel-on-the-spot, queue-full 429, and listing.
func TestQueuedLifecycle(t *testing.T) {
	e := idleEnv(t, reaperd.Config{QueueDepth: 1})

	st := e.submit(deviceProgram, http.StatusAccepted)
	if st.State != reaperd.StateQueued {
		t.Fatalf("state %s, want queued", st.State)
	}
	if code, _ := e.do(http.MethodGet, "/v1/programs/"+st.ID+"/result", nil); code != http.StatusConflict {
		t.Fatalf("result of queued program: code %d, want 409", code)
	}

	// Queue depth 1 is exhausted; next submission is rejected.
	e.submit(deviceProgram, http.StatusTooManyRequests)

	code, body := e.do(http.MethodGet, "/v1/programs", nil)
	if code != http.StatusOK {
		t.Fatalf("list: code %d", code)
	}
	var list reaperd.ProgramList
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("list response: %v", err)
	}
	if len(list.Programs) != 1 || list.Programs[0].ID != st.ID {
		t.Fatalf("list %+v, want just %s", list.Programs, st.ID)
	}

	// Cancel flips a queued program to cancelled immediately, idempotently.
	for i := 0; i < 2; i++ {
		code, body = e.do(http.MethodPost, "/v1/programs/"+st.ID+"/cancel", nil)
		var got reaperd.Status
		if err := json.Unmarshal(body, &got); err != nil || code != http.StatusOK {
			t.Fatalf("cancel: code %d body %s err %v", code, body, err)
		}
		if got.State != reaperd.StateCancelled {
			t.Fatalf("cancel #%d: state %s", i, got.State)
		}
	}
	if code, _ = e.do(http.MethodGet, "/v1/programs/"+st.ID+"/result", nil); code != http.StatusConflict {
		t.Fatalf("result of cancelled program: code %d, want 409", code)
	}
}

// TestDrain pins the graceful-drain semantics deterministically: with the
// scheduler not yet started, submit a program, cancel the scheduler
// context, then run Serve synchronously. It must run the already-queued
// program to completion before returning, and the server must refuse new
// work afterwards.
func TestDrain(t *testing.T) {
	s := reaperd.New(reaperd.Config{JobWorkers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	e := &env{t: t, ts: ts}

	st := e.submit(deviceProgram, http.StatusAccepted)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Serve(ctx); err != nil {
		t.Fatalf("Serve during drain: %v", err)
	}

	code, body := e.do(http.MethodGet, "/v1/programs/"+st.ID, nil)
	var got reaperd.Status
	if err := json.Unmarshal(body, &got); err != nil || code != http.StatusOK {
		t.Fatalf("status after drain: code %d err %v", code, err)
	}
	if got.State != reaperd.StateDone {
		t.Fatalf("drained program state %s, want done (error %q)", got.State, got.Error)
	}
	if code, _ := e.do(http.MethodGet, "/v1/programs/"+st.ID+"/result", nil); code != http.StatusOK {
		t.Fatalf("result after drain: code %d", code)
	}

	// Intake is closed.
	e.submit(deviceProgram, http.StatusServiceUnavailable)
	code, body = e.do(http.MethodGet, "/healthz", nil)
	var h reaperd.Health
	if err := json.Unmarshal(body, &h); err != nil || code != http.StatusOK {
		t.Fatalf("healthz: code %d err %v", code, err)
	}
	if h.Status != "draining" {
		t.Fatalf("healthz status %q, want draining", h.Status)
	}
}

// TestEvents checks the JSONL progress stream: accepted/started/finished
// markers plus one progress line per (chip, stage) unit.
func TestEvents(t *testing.T) {
	e := newEnv(t, reaperd.Config{})
	st := e.submit(deviceProgram, http.StatusAccepted)
	fin := e.waitTerminal(st.ID)
	if fin.State != reaperd.StateDone {
		t.Fatalf("state %s", fin.State)
	}
	code, body := e.do(http.MethodGet, "/v1/programs/"+st.ID+"/events", nil)
	if code != http.StatusOK {
		t.Fatalf("events: code %d", code)
	}
	kinds := map[string]int{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var ev telemetry.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		kinds[ev.Kind]++
	}
	if kinds["accepted"] != 1 || kinds["started"] != 1 || kinds["finished"] != 1 {
		t.Fatalf("marker events: %v", kinds)
	}
	if kinds["progress"] != int(fin.Total) {
		t.Fatalf("progress events %d, want %d", kinds["progress"], fin.Total)
	}
}

// TestHealthAndMetrics checks the observability endpoints.
func TestHealthAndMetrics(t *testing.T) {
	reg := telemetry.New()
	e := newEnv(t, reaperd.Config{Telemetry: reg})
	code, body := e.do(http.MethodGet, "/healthz", nil)
	if code != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz: %d %s", code, body)
	}
	st := e.submit(deviceProgram, http.StatusAccepted)
	e.waitTerminal(st.ID)
	code, body = e.do(http.MethodGet, "/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: code %d", code)
	}
	for _, want := range []string{
		"reaperd_submissions_total",
		"reaperd_programs_completed_total",
		"reaperd_http_requests_total",
		"testprog_programs_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics lack %s: %s", want, body)
		}
	}
	// The shared registry handed in via Config is the one served.
	submitted := int64(0)
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "reaperd_submissions_total" {
			submitted += c.Value
		}
	}
	if submitted != 1 {
		t.Fatalf("shared registry not wired")
	}
}

// TestCancelRunning exercises the running-cancel path with a long
// campaign. Timing-tolerant: if the program finishes before the cancel
// lands, done is also accepted — the deterministic queued-cancel path is
// covered by TestQueuedLifecycle.
func TestCancelRunning(t *testing.T) {
	e := newEnv(t, reaperd.Config{JobWorkers: 2})
	soak := `{
  "version": 1,
  "seed": 9,
  "fleet": {"chips": 2, "bits": 8388608},
  "stages": [
    {"type": "soak", "hours": 96, "target_interval_s": 1.024, "controller": true}
  ],
  "output": {}
}`
	st := e.submit(soak, http.StatusAccepted)
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, body := e.do(http.MethodGet, "/v1/programs/"+st.ID, nil)
		var got reaperd.Status
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("status: %v", err)
		}
		if got.State != reaperd.StateQueued || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if code, _ := e.do(http.MethodPost, "/v1/programs/"+st.ID+"/cancel", nil); code != http.StatusOK {
		t.Fatalf("cancel: code %d", code)
	}
	fin := e.waitTerminal(st.ID)
	if fin.State != reaperd.StateCancelled && fin.State != reaperd.StateDone {
		t.Fatalf("state after cancel: %s (error %q)", fin.State, fin.Error)
	}
	if fin.State == reaperd.StateCancelled {
		if code, _ := e.do(http.MethodGet, "/v1/programs/"+st.ID+"/result", nil); code != http.StatusConflict {
			t.Fatalf("result of cancelled program: code %d, want 409", code)
		}
	}
}

// TestStartAddrClose exercises the real TCP front-end.
func TestStartAddrClose(t *testing.T) {
	s := reaperd.New(reaperd.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s.Start(ctx, "127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	addr := s.Addr()
	if addr == "" {
		t.Fatalf("Addr empty after Start")
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz over TCP: %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
