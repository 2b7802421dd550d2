// Command soak runs a long-horizon fault-injection campaign against a fleet
// of simulated chips operating at an extended refresh interval, with the
// firmware resilience controller defending the ECC budget (or not, with
// -baseline), and emits a JSON survival report.
//
// Exit status (uniform across the reaper tools, see OBSERVABILITY.md):
// 0 when every chip's cumulative UBER stays within -max-uber, 1 when the
// fleet violates it, 2 on configuration or runtime errors, 3 when the
// campaign completed but one or more chip shards were quarantined after
// exhausting -shard-attempts (the report covers the surviving chips and
// sets partial_coverage), 4 when a checkpointed campaign was interrupted
// (SIGINT/SIGTERM or -stop-after-checkpoints) — every chip that had started
// stopped at one of its saves, and the checkpoint directory holds each
// chip's newest save; rerun with -resume.
//
// Usage:
//
//	soak [-chips N] [-hours H] [-window H] [-seed S] [-workers N]
//	     [-shard-size N] [-target ms] [-max-uber F] [-baseline] [-quick]
//	     [-scenario default|quiet|harsh] [-out file.json]
//	     [-checkpoint-dir dir] [-resume] [-checkpoint-every N]
//	     [-stop-after-checkpoints N] [-shard-attempts N]
//	     [-metrics-out file.json] [-trace-out file.jsonl]
//	     [-pprof-addr host:port] [-cpuprofile file] [-heapprofile file]
//
// -checkpoint-dir enables crash-safe execution: each chip saves its state
// atomically every -checkpoint-every scrub windows; SIGINT and SIGTERM let
// every running chip finish its in-flight windows and save, start no other
// chip, and exit with status 4; and -resume restarts each chip from its
// newest intact save — the final report is byte-identical to an
// uninterrupted run (see DESIGN.md section 8).
//
// -metrics-out and -trace-out opt the campaign into the deterministic
// telemetry layer (see OBSERVABILITY.md): the metrics snapshot is
// byte-identical at any -workers count for a fixed seed. -pprof-addr,
// -cpuprofile, and -heapprofile observe the host process, not the
// simulation.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"reaper/internal/checkpoint"
	"reaper/internal/exitcode"
	"reaper/internal/experiments"
	"reaper/internal/faultinject"
	"reaper/internal/parallel"
	"reaper/internal/telemetry"
)

// The fault-injection presets -scenario accepts live in
// internal/faultinject and resolve through experiments.SoakScenario, shared
// with the test-program "soak" stage so a scenario named in a JSON program
// is bit-identical to the same name on this command line.
func scenarioNames() string {
	return strings.Join(faultinject.ScenarioNames(), ", ")
}

// main delegates to run so deferred cleanups (CPU profile stop, pprof
// server shutdown) execute before the process exits with a status code.
func main() { os.Exit(run()) }

func run() int {
	chips := flag.Int("chips", 4, "fleet size")
	hours := flag.Float64("hours", 14*24, "soak horizon, simulated hours")
	window := flag.Float64("window", 1, "scrub window, hours")
	seed := flag.Uint64("seed", 1, "campaign seed (report is bit-identical per seed)")
	workers := flag.Int("workers", parallel.DefaultWorkers(),
		"fleet worker pool size (results are identical at any count)")
	shardSize := flag.Int("shard-size", 0,
		"max chips holding dense simulator state at once (0 = no bound); results are identical at any value")
	targetMs := flag.Float64("target", 1024, "extended refresh interval, ms")
	maxUBER := flag.Float64("max-uber", 1e-4, "survival criterion: max cumulative UBER")
	baseline := flag.Bool("baseline", false, "disable the resilience controller (open-loop baseline)")
	quick := flag.Bool("quick", false, "short deterministic soak (2 chips, 48 hours)")
	scenario := flag.String("scenario", "default",
		"named fault scenario: "+scenarioNames())
	out := flag.String("out", "", "write the JSON report to this file (default stdout)")
	checkpointDir := flag.String("checkpoint-dir", "",
		"enable crash-safe checkpointing into this directory")
	resume := flag.Bool("resume", false,
		"resume the campaign from the newest intact checkpoint in -checkpoint-dir")
	checkpointEvery := flag.Int("checkpoint-every", experiments.DefaultCheckpointEveryWindows,
		"scrub windows between a chip's saves")
	stopAfter := flag.Int("stop-after-checkpoints", 0,
		"stop each chip after its N-th save in this process, with a resumable exit (0 = run to completion; for drills and tests)")
	shardAttempts := flag.Int("shard-attempts", 0,
		"attempts per chip, each from its newest save, before quarantining it (0 = first failure aborts the campaign)")
	metricsOut := flag.String("metrics-out", "", "write the telemetry metrics snapshot (JSON) to this file")
	traceOut := flag.String("trace-out", "", "write the merged trace timeline (JSONL) to this file")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof and /metrics on this address (e.g. localhost:6060)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the host process to this file")
	heapprofile := flag.String("heapprofile", "", "write a heap profile of the host process to this file")
	flag.Parse()

	if *workers < 1 {
		log.Printf("soak: -workers must be >= 1 (got %d)", *workers)
		return exitcode.ConfigError
	}
	if *chips < 1 {
		log.Printf("soak: -chips must be >= 1 (got %d)", *chips)
		return exitcode.ConfigError
	}
	if *shardSize < 0 {
		log.Printf("soak: -shard-size must be >= 0 (got %d)", *shardSize)
		return exitcode.ConfigError
	}
	scenarioOverride, err := experiments.SoakScenario(*scenario, *seed)
	if err != nil {
		log.Printf("soak: unknown scenario %q; valid scenarios: %s", *scenario, scenarioNames())
		return exitcode.ConfigError
	}
	if *resume && *checkpointDir == "" {
		log.Printf("soak: -resume requires -checkpoint-dir")
		return exitcode.ConfigError
	}
	if *shardAttempts < 0 {
		log.Printf("soak: -shard-attempts must be >= 0 (got %d)", *shardAttempts)
		return exitcode.ConfigError
	}

	var reg *telemetry.Registry
	if *metricsOut != "" || *traceOut != "" || *pprofAddr != "" {
		reg = telemetry.New()
	}
	if *pprofAddr != "" {
		srv, err := telemetry.StartServer(*pprofAddr, reg)
		if err != nil {
			log.Println(err)
			return exitcode.ConfigError
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "soak: pprof and /metrics on http://%s\n", srv.Addr())
	}
	if *cpuprofile != "" {
		stop, err := telemetry.StartCPUProfile(*cpuprofile)
		if err != nil {
			log.Println(err)
			return exitcode.ConfigError
		}
		defer func() {
			if err := stop(); err != nil {
				log.Println(err)
			}
		}()
	}

	cfg := experiments.DefaultSoakConfig(*seed)
	cfg.Chips = *chips
	cfg.Hours = *hours
	cfg.WindowHours = *window
	cfg.Workers = *workers
	cfg.ShardSize = *shardSize
	cfg.TargetInterval = *targetMs / 1000
	cfg.MaxUBER = *maxUBER
	cfg.Controller = !*baseline
	cfg.Scenario = scenarioOverride
	cfg.Telemetry = reg
	if *quick {
		cfg.Chips = 2
		cfg.Hours = 48
	}
	cfg.ShardAttempts = *shardAttempts
	if *checkpointDir != "" {
		// SIGINT/SIGTERM request a graceful stop through a separate signal
		// context: each running chip completes its in-flight windows and
		// saves, chips not yet started stay unstarted, and only then does
		// the campaign return ErrInterrupted. The run context stays
		// uncancelled so no chip is aborted mid-window.
		sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stopSignals()
		cfg.Checkpoint = &experiments.CheckpointOptions{
			Dir:                  *checkpointDir,
			EveryWindows:         *checkpointEvery,
			Resume:               *resume,
			StopAfterCheckpoints: *stopAfter,
			ShouldStop:           func() bool { return sigCtx.Err() != nil },
		}
	}

	rep, err := experiments.Soak(context.Background(), cfg)
	if errors.Is(err, experiments.ErrInterrupted) {
		fmt.Fprintf(os.Stderr, "soak: interrupted; checkpoint saved in %s; rerun with -resume to continue\n",
			*checkpointDir)
		return exitcode.Interrupted
	}
	if err != nil {
		log.Println(err)
		return exitcode.ConfigError
	}

	controller := "resilience controller ON"
	if !rep.Controller {
		controller = "open-loop baseline (controller OFF)"
	}
	fmt.Fprintf(os.Stderr, "soak: %d chips x %.0f h at %.0f ms, %s\n",
		rep.Chips, rep.Hours, rep.TargetInterval*1000, controller)
	for _, c := range rep.ChipReports {
		fmt.Fprintf(os.Stderr,
			"  chip %d: UBER %.3g (max %.3g), %d/%d UE windows, %d rounds (%d early, %d aborted), "+
				"final interval %.0f ms, %.0f%% time extended\n",
			c.Chip, c.UBER, rep.MaxUBER, c.ViolationWindows, c.Windows,
			c.Rounds, c.EarlyRounds, c.Aborts, c.FinalIntervalMs, c.ExtendedFraction*100)
	}
	for _, q := range rep.Quarantined {
		fmt.Fprintf(os.Stderr, "  chip %d QUARANTINED after %d attempts: %s\n",
			q.Chip, q.Attempts, q.Reason)
	}
	verdict := "SURVIVED"
	if !rep.Survived {
		verdict = "VIOLATED"
	}
	if rep.PartialCoverage {
		verdict += " (partial coverage)"
	}
	fmt.Fprintf(os.Stderr, "fleet %s: worst UBER %.3g vs budget %.3g, %.0f%% mean time at extended interval\n",
		verdict, rep.WorstUBER, rep.MaxUBER, rep.MeanExtendedFraction*100)

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Println(err)
		return exitcode.ConfigError
	}
	enc = append(enc, '\n')
	if *out != "" {
		if err := checkpoint.WriteFileAtomic(*out, enc, 0o644); err != nil {
			log.Println(err)
			return exitcode.ConfigError
		}
	} else {
		os.Stdout.Write(enc)
	}
	if *metricsOut != "" {
		if err := rep.Telemetry.WriteFile(*metricsOut); err != nil {
			log.Println(err)
			return exitcode.ConfigError
		}
	}
	if *traceOut != "" {
		if err := telemetry.WriteJSONLFile(*traceOut, rep.TraceEvents); err != nil {
			log.Println(err)
			return exitcode.ConfigError
		}
	}
	if *heapprofile != "" {
		if err := telemetry.WriteHeapProfile(*heapprofile); err != nil {
			log.Println(err)
			return exitcode.ConfigError
		}
	}
	if !rep.Survived {
		return exitcode.Violated
	}
	if rep.PartialCoverage {
		return exitcode.PartialCoverage
	}
	return exitcode.OK
}
