// Command reaper profiles a simulated LPDDR4 chip for retention failures
// with either brute-force profiling (the paper's Algorithm 1) or reach
// profiling (the paper's contribution), reporting coverage, false positive
// rate, runtime, and the implied profile longevity under SECDED ECC.
//
// Exit status (uniform across the reaper tools, see OBSERVABILITY.md):
// 0 on success, 2 on configuration or runtime errors.
//
// Usage:
//
//	reaper [-capacity-mbit N] [-vendor A|B|C] [-seed S]
//	       [-target ms] [-reach-interval ms] [-reach-temp C]
//	       [-iterations N] [-chamber] [-workers N]
//	       [-metrics-out file.json] [-trace-out file.jsonl]
//	       [-pprof-addr host:port] [-cpuprofile file] [-heapprofile file]
//
// -metrics-out and -trace-out opt the run into the deterministic telemetry
// layer (see OBSERVABILITY.md); -pprof-addr, -cpuprofile, and -heapprofile
// observe the host process, not the simulation.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"reaper"
	"reaper/internal/ecc"
	"reaper/internal/exitcode"
	"reaper/internal/longevity"
	"reaper/internal/parallel"
	"reaper/internal/telemetry"
)

// main delegates to run so deferred cleanups (CPU profile stop, pprof
// server shutdown) execute before the process exits with a status code.
func main() { os.Exit(run()) }

func run() int {
	capacityMbit := flag.Int64("capacity-mbit", 256, "chip capacity in Mbit")
	vendorName := flag.String("vendor", "B", "vendor profile: A, B or C")
	seed := flag.Uint64("seed", 1, "chip seed (reproducible experiments)")
	targetMs := flag.Float64("target", 1024, "target refresh interval, ms")
	reachMs := flag.Float64("reach-interval", 500, "reach delta interval, ms (0 = brute force)")
	reachTemp := flag.Float64("reach-temp", 0, "reach delta temperature, °C")
	iterations := flag.Int("iterations", 16, "profiling iterations")
	chamber := flag.Bool("chamber", false, "simulate the PID thermal chamber")
	chips := flag.Int("chips", 1, "number of chips (>1 profiles a multi-chip module)")
	workers := flag.Int("workers", parallel.DefaultWorkers(),
		"worker pool size for multi-chip module passes (results are identical at any count)")
	metricsOut := flag.String("metrics-out", "", "write the telemetry metrics snapshot (JSON) to this file")
	traceOut := flag.String("trace-out", "", "write the profiling trace (JSONL) to this file")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof and /metrics on this address (e.g. localhost:6060)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the host process to this file")
	heapprofile := flag.String("heapprofile", "", "write a heap profile of the host process to this file")
	flag.Parse()

	if *workers < 1 {
		log.Printf("reaper: -workers must be >= 1 (got %d)", *workers)
		return exitcode.ConfigError
	}
	if *chips < 1 {
		log.Printf("reaper: -chips must be >= 1 (got %d)", *chips)
		return exitcode.ConfigError
	}

	var vendor reaper.VendorParams
	switch *vendorName {
	case "A":
		vendor = reaper.VendorA()
	case "B":
		vendor = reaper.VendorB()
	case "C":
		vendor = reaper.VendorC()
	default:
		log.Printf("reaper: unknown vendor %q; valid vendors: A, B, C", *vendorName)
		return exitcode.ConfigError
	}

	var reg *telemetry.Registry
	var tracer *telemetry.Tracer
	if *metricsOut != "" || *traceOut != "" || *pprofAddr != "" {
		reg = telemetry.New()
		tracer = telemetry.NewTracer(telemetry.DefaultTraceCapacity)
	}
	if *pprofAddr != "" {
		srv, err := telemetry.StartServer(*pprofAddr, reg)
		if err != nil {
			log.Println(err)
			return exitcode.ConfigError
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "reaper: pprof and /metrics on http://%s\n", srv.Addr())
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

	cfg := reaper.ChipConfig{
		CapacityBits:       *capacityMbit << 20,
		Vendor:             vendor,
		Seed:               *seed,
		WithThermalChamber: *chamber,
	}
	st, err := reaper.NewModule(*chips, cfg)
	if err != nil {
		log.Println(err)
		return exitcode.ConfigError
	}
	st.SetWorkers(*workers)
	if *chips > 1 {
		// Only a module's passes record the module_* counters.
		st.SetTelemetry(reg)
		fmt.Printf("module: %d chips x %v, vendor %s\n",
			st.Chips(), st.Device().Geometry(), vendor.Name)
	} else {
		fmt.Printf("chip: %v, vendor %s, %d modelled weak cells\n",
			st.Device().Geometry(), vendor.Name, st.Device().WeakCellCount())
	}

	target := *targetMs / 1000
	reach := reaper.ReachConditions{
		DeltaInterval: *reachMs / 1000,
		DeltaTempC:    *reachTemp,
	}
	mode := "reach profiling"
	if reach.DeltaInterval == 0 && reach.DeltaTempC == 0 {
		mode = "brute-force profiling"
	}
	fmt.Printf("%s: target %.0fms @ %.0f°C, profiling at %.0fms @ %.0f°C, %d iterations\n",
		mode, target*1000, st.Ambient(),
		(target+reach.DeltaInterval)*1000, st.Ambient()+reach.DeltaTempC, *iterations)

	res, err := reaper.Profile(st, target, reach, reaper.Options{
		Iterations:              *iterations,
		FreshRandomPerIteration: true,
		Seed:                    *seed,
		Telemetry:               reg,
		Tracer:                  tracer,
	})
	if err != nil {
		log.Println(err)
		return exitcode.ConfigError
	}
	truth := reaper.Truth(st, target, reaper.RefTempC)
	if err := st.Err(); err != nil {
		log.Println(err)
		return exitcode.ConfigError
	}
	cov := reaper.Coverage(res.Failures, truth)
	fpr := reaper.FalsePositiveRate(res.Failures, truth)
	fmt.Printf("found %d failing cells (ground truth %d): coverage %.4f, FPR %.3f\n",
		res.Failures.Len(), truth.Len(), cov, fpr)
	fmt.Printf("profiling runtime: %.1f simulated seconds (%.1f%% waits, %.1f%% data passes)\n",
		res.RuntimeSeconds(),
		res.Stats.WaitSeconds/res.RuntimeSeconds()*100,
		(res.Stats.WriteSeconds+res.Stats.ReadSeconds)/res.RuntimeSeconds()*100)

	// Profile longevity under SECDED at the consumer UBER target,
	// projected onto a production-scale 2GB module (the simulated chip is
	// a scale model; Equation 7 is capacity-invariant at full coverage
	// but the coverage feasibility threshold is not).
	m := longevity.Model{
		Code:       ecc.SECDED(),
		TargetUBER: ecc.UBERConsumer,
		Bytes:      2 << 30,
		Vendor:     vendor,
		TempC:      reaper.RefTempC,
	}
	if d, err := m.Longevity(target, cov); err != nil {
		fmt.Printf("projected 2GB-module profile longevity: %v\n", err)
		fmt.Println("hint: raise coverage with a larger -reach-interval, -reach-temp, or -iterations")
	} else {
		fmt.Printf("projected 2GB-module profile longevity (SECDED, UBER 1e-15): %.1f hours before reprofiling\n", d.Hours())
	}

	if *metricsOut != "" {
		if err := reg.Snapshot().WriteFile(*metricsOut); err != nil {
			log.Println(err)
			return exitcode.ConfigError
		}
	}
	if *traceOut != "" {
		trace := telemetry.Merge(telemetry.Trace{Source: "profiler", Events: tracer.Events()})
		if err := telemetry.WriteJSONLFile(*traceOut, trace); err != nil {
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
	return exitcode.OK
}
