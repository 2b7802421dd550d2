// Command tradeoff regenerates the paper's reach-condition tradeoff
// analysis (Figures 9 and 10): a grid of (Δ refresh interval,
// Δ temperature) reach conditions scored for coverage, false positive rate,
// and profiling runtime relative to brute force.
//
// Exit status (uniform across the reaper tools, see OBSERVABILITY.md):
// 0 on success, 2 on configuration or runtime errors.
//
// Usage:
//
//	tradeoff [-target ms] [-quick] [-seed S] [-workers N]
//	         [-metrics-out file.json] [-trace-out file.jsonl]
//	         [-pprof-addr host:port]
//
// -metrics-out and -trace-out opt the run into the deterministic telemetry
// layer (see OBSERVABILITY.md); the grid-point trace is emitted after the
// grid joins, in row-major order, so it is identical at any -workers count.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"reaper/internal/core"
	"reaper/internal/exitcode"
	"reaper/internal/experiments"
	"reaper/internal/parallel"
	"reaper/internal/telemetry"
)

// main delegates to run so deferred cleanups execute before the process
// exits with a status code.
func main() { os.Exit(run()) }

func run() int {
	targetMs := flag.Float64("target", 1024, "target refresh interval in milliseconds")
	quick := flag.Bool("quick", false, "smaller grid and iteration counts")
	seed := flag.Uint64("seed", 9, "experiment seed")
	workers := flag.Int("workers", parallel.DefaultWorkers(),
		"worker pool size for the reach grid (results are identical at any count)")
	metricsOut := flag.String("metrics-out", "", "write the telemetry metrics snapshot (JSON) to this file")
	traceOut := flag.String("trace-out", "", "write the grid-point trace (JSONL) to this file")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof and /metrics on this address (e.g. localhost:6060)")
	flag.Parse()

	if *workers < 1 {
		log.Printf("tradeoff: -workers must be >= 1 (got %d)", *workers)
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
		fmt.Fprintf(os.Stderr, "tradeoff: pprof and /metrics on http://%s\n", srv.Addr())
	}

	cfg := experiments.DefaultFig9Config()
	cfg.TargetInterval = *targetMs / 1000
	cfg.Seed = *seed
	cfg.Chip.Seed = *seed
	cfg.Workers = *workers
	if *quick {
		cfg.DeltaIntervals = []float64{0, 0.25, 0.5}
		cfg.DeltaTemps = []float64{0, 5}
		cfg.Iterations = 8
		cfg.MaxIterations = 32
	}
	ctx := telemetry.WithRegistry(context.Background(), reg)
	points, err := experiments.Fig9Fig10Tradeoff(ctx, cfg)
	if err != nil {
		log.Println(err)
		return exitcode.ConfigError
	}
	experiments.Fig9Table(points).Render(os.Stdout)

	h, err := experiments.Headline(points)
	if err != nil {
		log.Println(err)
		return exitcode.ConfigError
	}
	fmt.Printf("headline (paper Section 6.1.2): at +250ms reach, coverage %.4f, FPR %.3f, speedup %.2fx\n",
		h.Coverage, h.FalsePositiveRate, h.Speedup)
	fmt.Printf("most aggressive grid point: speedup %.2fx at FPR %.3f\n",
		h.AggressiveSpeedup, h.AggressiveFPR)
	fmt.Println("(paper: 2.5x at 99% coverage and <50% FPR; up to 3.5x at >75% FPR)")

	if *metricsOut != "" {
		if err := reg.Snapshot().WriteFile(*metricsOut); err != nil {
			log.Println(err)
			return exitcode.ConfigError
		}
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, points); err != nil {
			log.Println(err)
			return exitcode.ConfigError
		}
	}
	return exitcode.OK
}

// writeTrace emits one "tradeoff-point" event per grid point, in the
// deterministic row-major order the explorer returns. The events are
// synthesized after the concurrent grid joins — a live tracer shared by the
// workers would record arrival order, which varies with worker count.
func writeTrace(path string, points []core.TradeoffPoint) error {
	tracer := telemetry.NewTracer(len(points))
	for _, pt := range points {
		tracer.Emit(pt.RuntimeSeconds, "tradeoff-point",
			fmt.Sprintf("dI=%gs dT=%gC coverage=%.4f fpr=%.4f speedup=%.2f",
				pt.Reach.DeltaInterval, pt.Reach.DeltaTempC,
				pt.Coverage, pt.FalsePositiveRate, pt.Speedup()))
	}
	return telemetry.WriteJSONLFile(path, telemetry.Merge(telemetry.Trace{Source: "grid", Events: tracer.Events()}))
}
