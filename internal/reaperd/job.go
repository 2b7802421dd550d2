package reaperd

import (
	"fmt"
	"net"
	"net/http"
	"sync"

	"reaper/internal/telemetry"
	"reaper/internal/testprog"
)

// State is a program's position in the service lifecycle. Transitions are
// queued → running → (done | failed | cancelled); a queued program may
// also move straight to cancelled.
type State string

// The program lifecycle states (Status.State).
const (
	// StateQueued: accepted, waiting for the executor.
	StateQueued State = "queued"
	// StateRunning: the executor is running the program.
	StateRunning State = "running"
	// StateDone: finished successfully; the result document is available.
	StateDone State = "done"
	// StateFailed: the program errored (or panicked — tenants are
	// isolated, so one program's panic fails only that program).
	StateFailed State = "failed"
	// StateCancelled: cancelled via the cancel endpoint before finishing.
	StateCancelled State = "cancelled"
)

// Status is the wire representation of one submitted program, returned by
// the submit, status, list, and cancel endpoints.
type Status struct {
	// ID is the server-assigned program ID ("p000001", …), the path
	// element of the per-program endpoints.
	ID string `json:"id"`
	// Name echoes the program's optional name.
	Name string `json:"name,omitempty"`
	// Kind is the program family: "device" or "campaign".
	Kind string `json:"kind"`
	// Seed echoes the program seed the result is deterministic in.
	Seed uint64 `json:"seed"`
	// State is the lifecycle state; see the State constants.
	State State `json:"state"`
	// Done and Total count completed vs expected progress units
	// (chips × stages for device programs, stages for campaigns).
	Done  int64 `json:"done"`
	Total int64 `json:"total"`
	// Error carries the failure reason when State is "failed".
	Error string `json:"error,omitempty"`
}

// ProgramList is the wire response of GET /v1/programs: every submitted
// program in submission order.
type ProgramList struct {
	// Programs holds one Status per submission, oldest first.
	Programs []Status `json:"programs"`
}

// ErrorResponse is the wire shape of every non-2xx JSON response.
type ErrorResponse struct {
	// Error is a human-readable description of what was rejected and why.
	Error string `json:"error"`
}

// Health is the wire response of GET /healthz.
type Health struct {
	// Status is "ok" while the server accepts work, "draining" once
	// shutdown has begun.
	Status string `json:"status"`
}

// job is one submitted program and its server-side lifecycle state.
// Mutable fields are guarded by Server.mu; events has its own lock.
type job struct {
	id      string
	program *testprog.Program
	status  Status
	// cancelRequested is set by the cancel endpoint; the executor
	// re-checks it around state transitions.
	cancelRequested bool
	// cancelRun aborts the in-flight testprog.Run; non-nil only while
	// running.
	cancelRun func()
	// result is the marshaled result document once state is done.
	result []byte
	// events is the live progress stream served as JSONL by /events.
	// A Tracer wants a single logical owner: here that owner is the job
	// (accepted/started/finished from the scheduler, progress from the
	// run's workers — the tracer serializes them).
	events *telemetry.Tracer
}

// Server is the profiling service: an HTTP API over a bounded
// deterministic program executor. Build with New; see the package comment
// for the lifecycle.
type Server struct {
	cfg Config
	reg *telemetry.Registry
	mux *http.ServeMux

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // job IDs in submission order
	nextID   int
	draining bool
	queue    chan *job

	httpSrv *http.Server
	ln      net.Listener
}

// newJob registers a submitted program under the next sequential ID.
// Caller holds s.mu and has already checked draining and queue capacity.
func (s *Server) newJob(p *testprog.Program) *job {
	s.nextID++
	j := &job{
		id:      fmt.Sprintf("p%06d", s.nextID),
		program: p,
		events:  telemetry.NewTracer(telemetry.DefaultTraceCapacity),
	}
	j.status = Status{
		ID:    j.id,
		Name:  p.Name,
		Kind:  string(p.Kind()),
		Seed:  p.Seed,
		State: StateQueued,
		Total: p.Units(),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	return j
}
