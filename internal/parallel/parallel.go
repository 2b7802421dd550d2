// Package parallel is the fleet execution engine: a bounded worker pool
// that runs independent jobs concurrently while preserving deterministic,
// submission-ordered results.
//
// The determinism contract every caller in this repository relies on:
// results are byte-identical to sequential execution at any worker count.
// That holds by construction when each job owns disjoint state — in the
// REAPER experiments every simulated chip or grid point owns its own
// dram.Device and rng.Source seed, so jobs never share mutable state — and
// because this package always delivers results in submission order, never
// completion order.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"reaper/internal/telemetry"
)

// DefaultWorkers returns the worker count used when a caller passes a
// non-positive count: one worker per logical CPU.
func DefaultWorkers() int { return runtime.NumCPU() }

// clampWorkers resolves a requested worker count against the job count.
func clampWorkers(workers, jobs int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > jobs {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// PanicError wraps a panic recovered from a worker goroutine so callers see
// it as an error (with the worker's stack) instead of a crashed process.
type PanicError struct {
	Value any
	Stack []byte
}

// Error renders the recovered value and the worker's stack trace.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: job panicked: %v\n%s", e.Value, e.Stack)
}

// batchJobBounds buckets the jobs-per-batch histogram: most campaigns fan
// out over a handful of chips or a few hundred grid points.
var batchJobBounds = []float64{1, 2, 4, 8, 16, 64, 256, 1024}

// Map runs fn(ctx, i) for i in [0, n) on at most workers goroutines and
// returns the results indexed by i — exactly what sequential execution
// would produce, regardless of worker count or completion order.
//
// On the first error (or panic, surfaced as *PanicError) the context passed
// to jobs is cancelled and Map returns the error from the lowest job index
// that failed, so the reported error is deterministic too. Results computed
// before cancellation are discarded.
//
// When ctx carries a telemetry.Registry, Map records batch and job counts.
// Only worker-count-invariant series are recorded — jobs queued, batches
// run, jobs completed on success — never goroutine or occupancy figures,
// which would differ between workers=1 and workers=8 and break the repo's
// snapshot determinism contract.
func Map[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if ctx == nil {
		//lint:ignore ctx-first nil-ctx convenience default at the pool boundary, not a severed cancellation chain
		ctx = context.Background()
	}
	reg := telemetry.FromContext(ctx)
	reg.Counter("parallel_batches_total").Inc()
	reg.Counter("parallel_jobs_queued_total").Add(int64(n))
	reg.Histogram("parallel_batch_jobs", batchJobBounds).Observe(float64(n))
	out, err := mapJobs(ctx, n, workers, fn)
	if err != nil {
		reg.Counter("parallel_batches_failed_total").Inc()
		return nil, err
	}
	// Completed jobs are credited per batch, not per job: under cancellation
	// the number of jobs that finished depends on scheduling, so a per-job
	// increment would vary with worker count.
	reg.Counter("parallel_jobs_completed_total").Add(int64(n))
	return out, nil
}

// minChunkJobs is the batch size below which the pool always runs inline: a
// batch that cannot spread at least this many jobs across workers has no
// work to overlap, so spawning goroutines for it is pure overhead.
const minChunkJobs = 2

// mapJobs is Map without the telemetry bookkeeping.
func mapJobs[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	workers = clampWorkers(workers, n)
	out := make([]T, n) // one result buffer per batch, preallocated
	if workers == 1 || n < minChunkJobs {
		// Inline fast path: a single worker (or a batch too small to chunk)
		// runs on the caller's goroutine with zero goroutine, channel, or
		// scheduling overhead — the plain sequential loop whose semantics
		// the pool must match at every worker count.
		for i := 0; i < n; i++ {
			v, err := run(ctx, i, fn)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64 // next job index to claim
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstI   = n // lowest failed job index seen so far
		firstErr error
	)
	fail := func(i int, err error) {
		mu.Lock()
		if i < firstI {
			firstI, firstErr = i, err
		}
		mu.Unlock()
		cancel()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := parent.Err(); err != nil {
					fail(i, err)
					return
				}
				// After a failure, sequential execution never reaches a
				// higher index; a job claimed below it still runs, because
				// its own error would be the one sequential execution hits.
				mu.Lock()
				past := i > firstI
				mu.Unlock()
				if past {
					return
				}
				v, err := run(ctx, i, fn)
				if err != nil {
					fail(i, err)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// run invokes fn for one job index, converting a panic into a *PanicError.
func run[T any](ctx context.Context, i int, fn func(ctx context.Context, i int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i)
}

// ForEach is Map for jobs that write their results into caller-owned slots
// (each job must touch only its own index's state).
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	_, err := Map(ctx, n, workers, func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, fn(ctx, i)
	})
	return err
}

// Do runs a fixed set of independent thunks (e.g. the arms of an ablation)
// and returns the first error by position.
func Do(ctx context.Context, workers int, fns ...func(ctx context.Context) error) error {
	return ForEach(ctx, len(fns), workers, func(ctx context.Context, i int) error {
		return fns[i](ctx)
	})
}
