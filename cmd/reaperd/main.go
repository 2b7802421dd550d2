// Command reaperd is the profiling-as-a-service daemon: a long-running
// HTTP/JSON server that accepts declarative test programs (the
// internal/testprog JSON schema), runs them on a bounded deterministic
// scheduler, and serves status, results, and progress events. API.md
// documents the wire protocol; EXPERIMENTS.md "Campaigns as data" walks
// through running the paper's campaigns against it.
//
// Endpoints: POST /v1/programs (submit), GET /v1/programs (list),
// GET /v1/programs/{id} (status), GET /v1/programs/{id}/result,
// POST /v1/programs/{id}/cancel, GET /v1/programs/{id}/events (JSONL),
// GET /healthz, GET /metrics.
//
// SIGINT/SIGTERM trigger a graceful drain: new submissions are rejected
// with 503 while queued and running programs finish, then the process
// exits 0.
//
// Exit status (uniform across the reaper tools, see OBSERVABILITY.md):
// 0 on a clean drain (or -selftest pass), 1 when -selftest detects a
// mismatch (determinism or golden-result violation), 2 on configuration
// errors.
//
// Usage:
//
//	reaperd [-addr host:port] [-max-concurrent N] [-queue-depth N]
//	        [-job-workers N] [-metrics-out file.json]
//	        [-pprof-addr host:port] [-selftest]
//
// -selftest starts the server on a loopback port, submits a small device
// program twice through the Go client, asserts the two result documents
// are byte-identical and structurally sound, and exits — the make
// serve-quick / CI smoke test.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"reaper/client"
	"reaper/internal/exitcode"
	"reaper/internal/parallel"
	"reaper/internal/reaperd"
	"reaper/internal/telemetry"
)

// selftestProgram is the tiny device program -selftest submits twice.
const selftestProgram = `{
  "version": 1,
  "name": "selftest",
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

// main delegates to run so deferred cleanups execute before exit.
func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", "127.0.0.1:8377", "listen address")
	maxConcurrent := flag.Int("max-concurrent", 2, "programs running at once")
	queueDepth := flag.Int("queue-depth", 16, "accepted programs that may wait for the executor")
	jobWorkers := flag.Int("job-workers", parallel.DefaultWorkers(),
		"per-program worker pool size (results are identical at any count)")
	metricsOut := flag.String("metrics-out", "", "write the final metrics snapshot JSON here on exit")
	pprofAddr := flag.String("pprof-addr", "", "serve pprof + live metrics on this address")
	selftest := flag.Bool("selftest", false, "run the submit-twice determinism smoke test and exit")
	flag.Parse()

	if *maxConcurrent < 1 || *queueDepth < 1 || *jobWorkers < 1 {
		log.Printf("reaperd: -max-concurrent, -queue-depth and -job-workers must be >= 1")
		return exitcode.ConfigError
	}

	reg := telemetry.New()
	cfg := reaperd.Config{
		MaxConcurrent: *maxConcurrent,
		QueueDepth:    *queueDepth,
		JobWorkers:    *jobWorkers,
		Telemetry:     reg,
	}

	if *pprofAddr != "" {
		dbg, err := telemetry.StartServer(*pprofAddr, reg)
		if err != nil {
			log.Printf("reaperd: %v", err)
			return exitcode.ConfigError
		}
		defer dbg.Close()
		log.Printf("reaperd: pprof and live metrics on http://%s", dbg.Addr())
	}

	// SIGINT/SIGTERM cancel ctx, which turns into a graceful drain inside
	// Serve: intake flips to 503, queued and running programs finish.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *selftest {
		return runSelftest(ctx, cfg)
	}

	s := reaperd.New(cfg)
	if err := s.Start(ctx, *addr); err != nil {
		log.Printf("reaperd: %v", err)
		return exitcode.ConfigError
	}
	log.Printf("reaperd: serving on http://%s (max-concurrent %d, queue %d, job-workers %d)",
		s.Addr(), *maxConcurrent, *queueDepth, *jobWorkers)

	err := s.Serve(ctx)
	_ = s.Close()
	if *metricsOut != "" {
		if werr := reg.Snapshot().WriteFile(*metricsOut); werr != nil {
			log.Printf("reaperd: %v", werr)
			return exitcode.ConfigError
		}
	}
	if err != nil {
		log.Printf("reaperd: scheduler: %v", err)
		return exitcode.ConfigError
	}
	log.Printf("reaperd: drained, exiting")
	return exitcode.OK
}

// runSelftest hosts the server on a loopback port and runs the
// client-side smoke check against it: the scheduler occupies this
// goroutine's pool slot while the check drives the HTTP API, and stopping
// the scheduler context ends both.
func runSelftest(ctx context.Context, cfg reaperd.Config) int {
	s := reaperd.New(cfg)
	if err := s.Start(ctx, "127.0.0.1:0"); err != nil {
		log.Printf("reaperd: selftest: %v", err)
		return exitcode.ConfigError
	}
	defer s.Close()

	serveCtx, stopServe := context.WithCancel(ctx)
	defer stopServe()
	var checkErr error
	_ = parallel.Do(ctx, 2,
		func(context.Context) error { return s.Serve(serveCtx) },
		func(ctx context.Context) error {
			defer stopServe()
			checkErr = selftestCheck(ctx, "http://"+s.Addr())
			return nil
		},
	)
	if checkErr != nil {
		log.Printf("reaperd: selftest FAILED: %v", checkErr)
		return exitcode.Violated
	}
	log.Printf("reaperd: selftest ok")
	return exitcode.OK
}

// selftestCheck is the golden check: submit the self-test program twice,
// require both runs to finish, produce structurally sound results, and
// return byte-identical documents.
func selftestCheck(ctx context.Context, base string) error {
	c := client.New(base)

	first, err := runOnce(ctx, c)
	if err != nil {
		return err
	}
	second, err := runOnce(ctx, c)
	if err != nil {
		return err
	}
	if !bytes.Equal(first, second) {
		return fmt.Errorf("determinism violated: two submissions of the same program returned different result bytes")
	}
	log.Printf("reaperd: selftest result digest sha256:%x", sha256.Sum256(first))
	return nil
}

// runOnce submits the self-test program, waits for it, and validates the
// result document's invariants before returning its bytes.
func runOnce(ctx context.Context, c *client.Client) ([]byte, error) {
	st, err := c.Submit(ctx, []byte(selftestProgram))
	if err != nil {
		return nil, err
	}
	fin, err := c.Wait(ctx, st.ID, 2*time.Millisecond)
	if err != nil {
		return nil, err
	}
	if fin.State != reaperd.StateDone {
		return nil, fmt.Errorf("program %s finished %s: %s", fin.ID, fin.State, fin.Error)
	}
	if fin.Done != fin.Total || fin.Total != 6 {
		return nil, fmt.Errorf("program %s progress %d/%d, want 6/6", fin.ID, fin.Done, fin.Total)
	}
	res, err := c.Result(ctx, fin.ID)
	if err != nil {
		return nil, err
	}
	if res.Kind != "device" || len(res.Chips) != 1 || len(res.Chips[0].Stages) != 6 {
		return nil, fmt.Errorf("program %s: malformed result shape", fin.ID)
	}
	cl := res.Chips[0].Stages[5].Classify
	if cl == nil || cl.Found != res.Chips[0].UniqueFailures {
		return nil, fmt.Errorf("program %s: classify stage inconsistent with unique failures", fin.ID)
	}
	if res.Metrics == nil {
		return nil, fmt.Errorf("program %s: include_metrics set but no metrics snapshot", fin.ID)
	}
	events, err := c.Events(ctx, fin.ID)
	if err != nil {
		return nil, err
	}
	if len(events) < 3 {
		return nil, fmt.Errorf("program %s: expected accepted/progress/finished events, got %d", fin.ID, len(events))
	}
	return c.ResultBytes(ctx, fin.ID)
}
