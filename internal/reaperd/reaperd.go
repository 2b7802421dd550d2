// Package reaperd implements the profiling-as-a-service HTTP server: a
// long-running daemon that accepts declarative test programs
// (internal/testprog JSON), schedules them on a bounded deterministic
// executor, and serves status, results, and progress events over a small
// JSON API. cmd/reaperd is the production front-end; tests drive the same
// Handler through net/http/httptest.
//
// Determinism contract: a program's result depends only on its own bytes
// (in particular its seed) — never on the submission order, the queue
// state, or what other tenants run concurrently. Every random stream a
// program consumes is derived from its seed inside testprog.Run, so
// submitting the same program twice returns byte-identical result
// documents. Progress events (/events) are live observability and are
// excluded from that contract.
//
// Lifecycle: New builds the server, Start binds a listener (optional —
// Handler serves the same mux in-process), Serve runs the scheduler until
// ctx is cancelled, and cancellation triggers a graceful drain: new
// submissions are rejected with 503 while queued and running programs
// finish. API.md documents the wire protocol.
package reaperd

import (
	"net/http"

	"reaper/internal/parallel"
	"reaper/internal/telemetry"
)

// Config tunes a Server. The zero value is usable: it serves defaults for
// every field.
type Config struct {
	// MaxConcurrent bounds how many programs run at once; <= 0 means 2.
	MaxConcurrent int
	// QueueDepth bounds how many accepted programs may wait for the
	// executor; further submissions are rejected with 429. <= 0 means 16.
	QueueDepth int
	// JobWorkers is the worker-pool width each program runs with
	// (testprog.RunOptions.Workers); <= 0 means one worker per CPU.
	// Results are byte-identical at any width.
	JobWorkers int
	// Telemetry receives the server's reaperd_* metrics (and the
	// testprog_* execution counters of every program it runs). Nil means a
	// fresh private registry; either way /metrics serves it.
	Telemetry *telemetry.Registry
}

// maxConcurrent resolves the configured concurrency bound.
func (c Config) maxConcurrent() int {
	if c.MaxConcurrent <= 0 {
		return 2
	}
	return c.MaxConcurrent
}

// queueDepth resolves the configured queue bound.
func (c Config) queueDepth() int {
	if c.QueueDepth <= 0 {
		return 16
	}
	return c.QueueDepth
}

// jobWorkers resolves the per-program worker-pool width.
func (c Config) jobWorkers() int {
	if c.JobWorkers <= 0 {
		return parallel.DefaultWorkers()
	}
	return c.JobWorkers
}

// New builds a server from cfg. The server does nothing until requests
// reach its Handler (or Start binds a listener) and Serve runs the
// scheduler.
func New(cfg Config) *Server {
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.New()
	}
	s := &Server{
		cfg:   cfg,
		reg:   reg,
		jobs:  make(map[string]*job),
		queue: make(chan *job, cfg.queueDepth()),
		mux:   http.NewServeMux(),
	}
	s.routes()
	return s
}

// Handler returns the server's HTTP handler — the full /v1 API plus
// /healthz and /metrics. It is what Start serves over TCP; tests mount it
// on an httptest.Server instead.
//
//lint:ignore dead-export the client and reaperd tests mount the in-process handler on httptest
func (s *Server) Handler() http.Handler { return s.mux }
