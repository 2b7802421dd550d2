package reaperd

import (
	"context"
	"encoding/json"
	"strconv"

	"reaper/internal/parallel"
	"reaper/internal/telemetry"
	"reaper/internal/testprog"
)

// Serve runs the scheduler until ctx is cancelled, then drains: queued and
// running programs finish (their contexts are detached from ctx via
// context.WithoutCancel), new submissions are rejected with 503, and Serve
// returns nil once the queue is empty. It executes programs on its own
// goroutine — the caller's — pulling batches of up to MaxConcurrent jobs
// and fanning each batch out on internal/parallel with per-job fault
// isolation: a program that fails or panics fails alone.
//
// Scheduling never affects results: each program's randomness derives from
// its own seed, so results are byte-identical whatever the batch makeup.
func (s *Server) Serve(ctx context.Context) error {
	defer s.beginDrain() // even an idle shutdown must flip submissions to 503
	for {
		batch := s.nextBatch(ctx)
		if len(batch) == 0 {
			return nil
		}
		// Jobs already accepted run to completion during drain: the batch
		// context deliberately survives ctx cancellation. Per-job
		// cancellation (the cancel endpoint) wraps this inside runJob.
		s.runBatch(context.WithoutCancel(ctx), batch)
	}
}

// nextBatch blocks until at least one job is queued, then tops the batch
// up to MaxConcurrent without blocking. When ctx is cancelled it begins
// the drain instead: everything still queued is returned (concurrency
// stays bounded by the executor's worker count), and an empty batch means
// the drain is complete.
func (s *Server) nextBatch(ctx context.Context) []*job {
	var batch []*job
	select {
	case j := <-s.queue:
		batch = append(batch, j)
	case <-ctx.Done():
		s.beginDrain()
		for {
			select {
			case j := <-s.queue:
				batch = append(batch, j)
			default:
				return batch
			}
		}
	}
	for len(batch) < s.cfg.maxConcurrent() {
		select {
		case j := <-s.queue:
			batch = append(batch, j)
		default:
			return batch
		}
	}
	return batch
}

// beginDrain stops the intake: subsequent submissions get 503. Idempotent.
func (s *Server) beginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// runBatch runs one batch to completion. runJob recovers a program's
// panic, so no job fails the batch.
func (s *Server) runBatch(ctx context.Context, batch []*job) {
	s.reg.Counter("reaperd_batches_total").Inc()
	s.reg.Gauge("reaperd_queue_depth").Set(float64(len(s.queue)))
	_ = parallel.ForEach(ctx, len(batch), s.cfg.maxConcurrent(), func(ctx context.Context, i int) error {
		s.runJob(ctx, batch[i])
		return nil
	})
}

// runJob executes one program. The job's run context layers the cancel
// endpoint's per-job cancellation over the batch context. A panic fails
// this program alone, with the stable "panic: <value>" reason
// parallel.PanicError gives.
func (s *Server) runJob(ctx context.Context, j *job) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer func() {
		if r := recover(); r != nil {
			s.finishJob(j, StateFailed, (&parallel.PanicError{Value: r}).Reason(), nil)
		}
	}()

	s.mu.Lock()
	if j.status.State != StateQueued {
		// Cancelled while queued; finishJob already ran.
		s.mu.Unlock()
		return
	}
	j.status.State = StateRunning
	j.cancelRun = cancel
	s.mu.Unlock()
	j.events.Emit(0, "started", "")

	res, err := testprog.Run(runCtx, j.program, testprog.RunOptions{
		Workers:   s.cfg.jobWorkers(),
		Telemetry: s.reg,
		OnProgress: func(ev testprog.ProgressEvent) {
			s.noteProgress(j, ev)
		},
	})
	switch {
	case err != nil && runCtx.Err() != nil:
		s.finishJob(j, StateCancelled, "", nil)
	case err != nil:
		s.finishJob(j, StateFailed, err.Error(), nil)
	default:
		enc, mErr := json.Marshal(res)
		if mErr != nil {
			s.finishJob(j, StateFailed, mErr.Error(), nil)
			return
		}
		s.finishJob(j, StateDone, "", append(enc, '\n'))
	}
}

// finishJob records a job's terminal state exactly once; later calls are
// ignored (e.g. a cancel racing the natural finish).
func (s *Server) finishJob(j *job, state State, errMsg string, result []byte) {
	s.mu.Lock()
	if j.status.State == StateDone || j.status.State == StateFailed || j.status.State == StateCancelled {
		s.mu.Unlock()
		return
	}
	j.status.State = state
	j.status.Error = errMsg
	j.cancelRun = nil
	j.result = result
	done := j.status.Done
	s.mu.Unlock()
	j.events.Emit(float64(done), "finished", string(state))
	s.reg.Counter("reaperd_programs_completed_total", telemetry.L("state", string(state))).Inc()
}

// noteProgress folds one testprog progress unit into the job's status and
// its event stream. Called concurrently from the run's workers.
func (s *Server) noteProgress(j *job, ev testprog.ProgressEvent) {
	s.mu.Lock()
	j.status.Done = ev.Done
	j.status.Total = ev.Total
	s.mu.Unlock()
	j.events.Emit(float64(ev.Done), "progress", ev.StageType,
		telemetry.L("chip", strconv.Itoa(ev.Chip)), telemetry.L("stage", strconv.Itoa(ev.Stage)))
	s.reg.Counter("reaperd_progress_units_total").Inc()
}
