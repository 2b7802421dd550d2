// Command reproduce regenerates the paper's evaluation — Figures 2-13,
// Table 1, the worked examples of Equations 7 and 9 — and the studies that
// go beyond it (the UBER independence check, the VRT/DPD/reach-knob
// ablations, passive scrubbing, the weak/strong classification fallacy),
// printing each as text tables. Each result is one entry of the
// internal/experiments registry, run at its one configuration.
//
// Exit status (uniform across the reaper tools, see OBSERVABILITY.md):
// 0 on success, 2 on configuration or runtime errors.
//
// Usage:
//
//	reproduce [-fig ID|all] [-seed S] [-workers N]
//	          [-metrics-out file.json] [-pprof-addr host:port]
//
// Output is byte-identical for a fixed -seed at any -workers count.
// -metrics-out opts the run into the deterministic telemetry layer (see
// OBSERVABILITY.md); -pprof-addr observes the host process.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"reaper/internal/exitcode"
	"reaper/internal/experiments"
	"reaper/internal/parallel"
	"reaper/internal/telemetry"
)

// main delegates to run so deferred cleanups execute before the process
// exits with a status code.
func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "entry to regenerate, or all")
	seed := fs.Uint64("seed", 1, "experiment seed")
	workers := fs.Int("workers", parallel.DefaultWorkers(),
		"worker pool size for fleet sweeps (results are identical at any count)")
	metricsOut := fs.String("metrics-out", "", "write the telemetry metrics snapshot (JSON) to this file")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof and /metrics on this address (e.g. localhost:6060)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitcode.OK
		}
		return exitcode.ConfigError
	}

	if *workers < 1 {
		fmt.Fprintf(stderr, "reproduce: -workers must be >= 1 (got %d)\n", *workers)
		return exitcode.ConfigError
	}
	entries := experiments.Entries()
	if *fig != "all" {
		ids := []string{"all"}
		var picked []experiments.Entry
		for _, e := range entries {
			ids = append(ids, e.ID)
			if e.ID == *fig {
				picked = append(picked, e)
			}
		}
		if picked == nil {
			fmt.Fprintf(stderr, "reproduce: unknown -fig %q; valid IDs: %s\n", *fig, strings.Join(ids, ", "))
			return exitcode.ConfigError
		}
		entries = picked
	}

	var reg *telemetry.Registry
	if *metricsOut != "" || *pprofAddr != "" {
		reg = telemetry.New()
	}
	if *pprofAddr != "" {
		srv, err := telemetry.StartServer(*pprofAddr, reg)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return exitcode.ConfigError
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "reproduce: pprof and /metrics on http://%s\n", srv.Addr())
	}

	ctx := telemetry.WithRegistry(context.Background(), reg)
	for _, e := range entries {
		if err := e.Run(ctx, stdout, *seed, *workers); err != nil {
			fmt.Fprintf(stderr, "reproduce: %s: %v\n", e.ID, err)
			return exitcode.ConfigError
		}
	}
	if *metricsOut != "" {
		if err := reg.Snapshot().WriteFile(*metricsOut); err != nil {
			fmt.Fprintln(stderr, err)
			return exitcode.ConfigError
		}
	}
	return exitcode.OK
}
