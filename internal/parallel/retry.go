package parallel

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"reaper/internal/telemetry"
)

// Reason renders the recovered panic value without the worker stack trace.
// Stacks embed goroutine ids and addresses, so two identical panics never
// render the same Error() string; Reason is the stable form campaign
// reports and checkpoint manifests record.
func (e *PanicError) Reason() string {
	return fmt.Sprintf("panic: %v", e.Value)
}

// JobFailure records one job that exhausted its attempts.
type JobFailure struct {
	// Job is the job index within the batch.
	Job int
	// Attempts is how many times the job was tried.
	Attempts int
	// Err is the error from the final attempt.
	Err error
}

// Reason renders the failure's error in its stable form: panics lose their
// stack (see PanicError.Reason), other errors render as Error().
func (f JobFailure) Reason() string {
	if pe, ok := f.Err.(*PanicError); ok {
		return pe.Reason()
	}
	if f.Err == nil {
		return ""
	}
	return f.Err.Error()
}

// MapPartial runs fn(ctx, i) for i in [0, n) like Map, but a failing job
// does not abort the batch: each job is tried up to attempts times in a row
// (values below 1 mean 1), and jobs that exhaust their attempts are returned
// as JobFailures (sorted by job index) while every other job's result is
// delivered normally. A failed job's slot in the result slice holds the zero
// value.
//
// The batch-level error is non-nil only when ctx is cancelled; in that case
// results and failures are meaningless and the caller should stop. As with
// Map, results and failures are identical at every worker count provided
// each job owns disjoint state.
func MapPartial[T any](ctx context.Context, n, workers, attempts int, fn func(ctx context.Context, i int) (T, error)) ([]T, []JobFailure, error) {
	if n <= 0 {
		return nil, nil, nil
	}
	if ctx == nil {
		//lint:ignore ctx-first nil-ctx convenience default at the pool boundary, not a severed cancellation chain
		ctx = context.Background()
	}
	reg := telemetry.FromContext(ctx)
	reg.Counter("parallel_batches_total").Inc()
	reg.Counter("parallel_jobs_queued_total").Add(int64(n))
	reg.Histogram("parallel_batch_jobs", batchJobBounds).Observe(float64(n))

	attempts = max(attempts, 1)
	var (
		mu       sync.Mutex
		failures []JobFailure
		retries  int64
	)
	// Every job runs its retry loop on Map's scheduler. A job that exhausts
	// its attempts is recorded as a failure and returns nil, so only a
	// cancelled ctx ever fails a job and aborts the batch.
	out, err := mapJobs(ctx, n, workers, func(ctx context.Context, i int) (T, error) {
		var zero T
		var lastErr error
		for attempt := 1; attempt <= attempts; attempt++ {
			if err := ctx.Err(); err != nil {
				return zero, err
			}
			if attempt > 1 {
				mu.Lock()
				retries++
				mu.Unlock()
			}
			v, err := run(ctx, i, fn)
			if err == nil {
				return v, nil
			}
			lastErr = err
			// A batch-level cancellation surfacing through the job is not a
			// job fault; stop retrying and report the cancellation.
			if err := ctx.Err(); err != nil {
				return zero, err
			}
		}
		mu.Lock()
		failures = append(failures, JobFailure{Job: i, Attempts: attempts, Err: lastErr})
		mu.Unlock()
		return zero, nil
	})
	if err != nil {
		return nil, nil, err
	}

	sort.Slice(failures, func(i, j int) bool { return failures[i].Job < failures[j].Job })
	reg.Counter("parallel_job_retries_total").Add(retries)
	reg.Counter("parallel_jobs_failed_total").Add(int64(len(failures)))
	reg.Counter("parallel_jobs_completed_total").Add(int64(n - len(failures)))
	return out, failures, nil
}
