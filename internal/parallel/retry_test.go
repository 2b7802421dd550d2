package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapPartialAllSucceed checks the happy path matches Map exactly.
func TestMapPartialAllSucceed(t *testing.T) {
	for _, workers := range []int{1, 4} {
		out, failures, err := MapPartial(context.Background(), 10, workers, 1,
			func(_ context.Context, i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(failures) != 0 {
			t.Fatalf("workers=%d: unexpected failures %v", workers, failures)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

// TestMapPartialQuarantinesPersistentFailure checks a job that fails every
// attempt is reported without aborting the batch, identically at every
// worker count.
func TestMapPartialQuarantinesPersistentFailure(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var attempts atomic.Int64
		out, failures, err := MapPartial(context.Background(), 8, workers, 3,
			func(_ context.Context, i int) (int, error) {
				if i == 3 {
					attempts.Add(1)
					return 0, fmt.Errorf("shard %d is poisoned", i)
				}
				if i == 5 {
					// no-panic does not govern test files; this panic is the
					// fixture the pool must convert to a JobFailure.
					panic("boom")
				}
				return i, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if got := attempts.Load(); got != 3 {
			t.Errorf("workers=%d: poisoned job tried %d times, want 3", workers, got)
		}
		if len(failures) != 2 || failures[0].Job != 3 || failures[1].Job != 5 {
			t.Fatalf("workers=%d: failures = %+v, want jobs 3 and 5", workers, failures)
		}
		if failures[0].Attempts != 3 || failures[0].Reason() != "shard 3 is poisoned" {
			t.Errorf("workers=%d: failure 0 = %+v", workers, failures[0])
		}
		if failures[1].Reason() != "panic: boom" {
			t.Errorf("workers=%d: panic reason = %q", workers, failures[1].Reason())
		}
		for i, v := range out {
			want := i
			if i == 3 || i == 5 {
				want = 0 // failed slots hold the zero value
			}
			if v != want {
				t.Errorf("workers=%d: out[%d] = %d, want %d", workers, i, v, want)
			}
		}
	}
}

// TestMapPartialRetrySucceeds checks a transient failure is healed by retry
// and does not surface as a failure.
func TestMapPartialRetrySucceeds(t *testing.T) {
	calls := make([]int, 4)
	out, failures, err := MapPartial(context.Background(), 4, 1, 4,
		func(_ context.Context, i int) (int, error) {
			calls[i]++
			if i == 2 && calls[i] < 3 {
				return 0, errors.New("transient")
			}
			return i + 100, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("transient failure not healed: %+v", failures)
	}
	if out[2] != 102 || calls[2] != 3 {
		t.Fatalf("out[2]=%d calls=%d, want 102 after 3 calls", out[2], calls[2])
	}
}

// TestMapPartialCancellation checks cancellation surfaces as the batch
// error, not as per-job failures.
func TestMapPartialCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	_, _, err := MapPartial(ctx, 64, 4, 5,
		func(ctx context.Context, i int) (int, error) {
			if ran.Add(1) == 3 {
				cancel()
			}
			return 0, ctx.Err()
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// settleGoroutines polls until the goroutine count returns to the baseline
// (workers need a moment to observe cancellation and exit).
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d now vs %d before", runtime.NumGoroutine(), baseline)
}

// TestMapDrainsWorkersOnCancellation is the goroutine-leak regression test:
// cancelling a batch mid-flight must not strand worker goroutines — Map and
// MapPartial both return only after every in-flight worker has exited.
func TestMapDrainsWorkersOnCancellation(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 10; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		started := make(chan struct{}, 64)
		go func() {
			// Cancel once every worker has a job in flight, so each worker
			// is blocked inside a job when the cancellation lands.
			for i := 0; i < 8; i++ {
				<-started
			}
			cancel()
		}()
		_, err := Map(ctx, 64, 8, func(ctx context.Context, i int) (int, error) {
			started <- struct{}{}
			<-ctx.Done() // simulate in-flight work interrupted by cancellation
			return 0, ctx.Err()
		})
		cancel()
		if err == nil {
			t.Fatal("cancelled batch returned no error")
		}
	}
	settleGoroutines(t, baseline)
}

// TestMapPartialDrainsWorkersOnCancellation is the same regression for the
// fault-tolerant pool.
func TestMapPartialDrainsWorkersOnCancellation(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 10; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(time.Millisecond)
			cancel()
		}()
		_, _, err := MapPartial(ctx, 64, 8, 3,
			func(ctx context.Context, i int) (int, error) {
				<-ctx.Done()
				return 0, ctx.Err()
			})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: err = %v, want context.Canceled", round, err)
		}
		cancel()
	}
	settleGoroutines(t, baseline)
}
