// Command bench is the repository's layered benchmark. One process runs one
// workload for a fixed wall-clock time at a fixed worker count of 2, checks
// every output against pinned digests, and prints every metric by name with
// its unit; the last line of standard output is a JSON summary:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"setup_s": {"value": 3.4, "unit": "s"}, ...}}
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash cmd/bench/run.sh --workload fig9_grid --seed 1 --seconds 15 --trace 0
//	go run . -workload all -seed 1 -out report.json           (from cmd/bench)
//	go run . -workload population -trace 1 -spans spans.jsonl -cpuprofile cpu.pprof
//	go run . -write-golden testdata/golden.json               (re-pin digests)
//
// cmd/bench is a module of its own whose go.mod replaces the repository
// module with ../.., so it builds from a plain checkout without touching the
// repository's build; run its tests with `go test` in this directory. Its
// package is still part of the repository tree reaperlint scans.
//
// # Workloads
//
// Each workload sets up five times (preparation plus one untimed warm-up
// unit; setup_s is the median), then runs units until -seconds have passed.
// Unit i uses seed -seed+i, so the same seed gives the same inputs.
//
//   - fig9_grid: one experiments.Fig9Fig10Tradeoff grid per unit (5x4 reach
//     grid, 64 Mbit vendor-B chip, 16/64 iterations). Chip construction
//     dominates: the grid builds 21 stations. Fresh random patterns force
//     round-cache misses, and the 20 points fan out over the pool.
//   - population: one experiments.PopulationSweep per unit (3 vendors x 16
//     chips of 16 Mbit, 8 iterations at +250 ms, shard size 8). Many small
//     chips: core.Truth and core.Reach per chip plus the shard executor's
//     materialize/evict churn, so heap size and shard-barrier idle time show.
//   - soak: one experiments.Soak campaign per unit (4 chips x 336 h,
//     controller on, checkpoint every 24 windows, shard size 2). Scrub and ECC
//     word reads, firmware ticks and resident writes dominate; at every
//     barrier the checkpoint layer saves, and eviction restores each chip from
//     its delta, so gains that cost the word path or checkpoint I/O show.
//   - service: programs sent open-loop to a loopback reaperd (MaxConcurrent 2,
//     JobWorkers 1) at 120 programs/s, Poisson arrivals drawn from
//     internal/rng, 80% 1 Mbit device programs and 20% 4 Mbit profile
//     programs. The only workload where reaperd, HTTP and testprog overhead
//     show. A unit is one completed program, timed from its due send time to
//     its result bytes; the load generator's lateness is reported too.
//
// # End-to-end metrics (-trace 0)
//
// setup_s, units_per_s (units per host second), unit_latency_p50_ms,
// latency_p90_ms, live_heap_p95_mib (the 95th percentile of
// /gc/heap/live:bytes sampled every 5 ms, so every GC cycle is seen; no GC
// is forced) and alloc_mib_per_unit (/gc/heap/allocs:bytes per unit). The
// report gives p99 and the number of units above it beside them. The gated
// tail is p90 because a 15 s service run has ~18 programs above its p99 and
// ~90 above its p95, too few for a value that repeats from run to run on a
// shared 2-CPU host; p90 has ~180. In the summary line, attempted counts
// every unit run, set-up units included, and failed counts errors, digest
// mismatches, HTTP 429 rejections and timeouts.
//
// # Per-layer attribution (-trace 1)
//
// A traced run first runs the workload untraced for half of -seconds, then
// recomputes the same units composed from public calls into each layer, with
// a span around every call the benchmark makes (name, start, end, parent,
// workload, unit) and every span wrapped in pprof.Do with layer and workload
// labels, so `go tool pprof -tags` splits CPU by layer. The traced outputs must
// equal the untraced ones. Spans stay in memory and are written once, at exit,
// to -spans. Counts come from spans and from the deterministic telemetry
// registry (dram_incr_*, core_profiling_*, parallel_*). Isolated per-call
// costs (ChipRef.Materialize, device sweeps, delta codec, a station round,
// Reach, Truth, testprog.Run, checkpoint save/load) are measured in the same
// run, and experiments.predicted_ms sums calls x cost per unit;
// experiments.residual_share is the part of the measured unit time the layer
// rows do not explain. A row the benchmark cannot observe on a workload (a
// layer it never calls, or calls only inside a library function it cannot
// wrap) reads 0.
//
// The paper-accuracy block (headline coverage, FPR and speedup) is printed
// beside the paper's numbers but not gated: the model is checked only
// against the shape targets of DESIGN.md section 4.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"

	"reaper/internal/checkpoint"
	"reaper/internal/exitcode"
	"reaper/internal/telemetry"
)

// benchWorkers is the fixed worker count: the CPU count of the host the
// benchmark was sized on. Fixing it keeps runs comparable across commits.
const benchWorkers = 2

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

// workloads lists the workloads in the order -workload all runs them.
var workloads = []string{"fig9_grid", "population", "soak", "service"}

// runConfig is one benchmark run's parameters.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workers  int
	// tiny shrinks every unit to test size.
	tiny    bool
	workdir string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the summary line the benchmark ends its standard output with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is one workload run: the summary plus what a reader needs to
// interpret it.
type report struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Workers  int     `json:"workers"`
	Host     string  `json:"host"`
	Result   result  `json:"result"`
	// UnitMS is every timed unit's latency, in order.
	UnitMS []float64 `json:"unit_ms"`
	// LatencyP99MS is the 99th percentile of UnitMS, and TailSamples the
	// number of units above it.
	LatencyP99MS float64           `json:"latency_p99_ms"`
	TailSamples  int               `json:"tail_samples"`
	EndToEnd     map[string]metric `json:"end_to_end"`
	PerLayer     map[string]metric `json:"per_layer,omitempty"`
	Accuracy     []string          `json:"accuracy,omitempty"`
	Failures     []string          `json:"failures,omitempty"`

	spans []span
}

func newReport(rc runConfig) *report {
	return &report{
		Workload: rc.workload,
		Seed:     rc.seed,
		Seconds:  rc.seconds,
		Trace:    rc.trace,
		Workers:  rc.workers,
		Host: fmt.Sprintf("%s/%s cpus=%d gomaxprocs=%d %s",
			runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()),
		EndToEnd: map[string]metric{},
		PerLayer: map[string]metric{},
	}
}

// fail records one failed unit (or one failed check) with its reason.
func (r *report) fail(format string, args ...any) {
	r.Result.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// e2e sets an end-to-end metric; layer sets a per-layer one. Values with no
// data (NaN) read 0, which JSON can carry.
func (r *report) e2e(name, unit string, v float64) { r.EndToEnd[name] = metric{finite(v), unit} }

func (r *report) layer(name, unit string, v float64) { r.PerLayer[name] = metric{finite(v), unit} }

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloads, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "workload seed; unit i uses seed+i")
	seconds := fs.Float64("seconds", 15, "wall-clock seconds of measured units")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer attribution instead of the end-to-end measurement")
	out := fs.String("out", "", "write the full JSON report here")
	spansOut := fs.String("spans", "", "with -trace 1, write the recorded spans here as JSONL")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile here (pprof labels: layer, workload)")
	workdir := fs.String("workdir", ".bench_build/tmp", "directory for temporary checkpoint files")
	writeGolden := fs.String("write-golden", "", "regenerate the pinned digests (seed 1 onwards) into this file and exit")
	if err := fs.Parse(args); err != nil {
		return exitcode.ConfigError
	}
	names := workloads
	if *workload != "all" {
		if !slices.Contains(workloads, *workload) {
			log.Printf("unknown -workload %q (valid: %s, all)", *workload, strings.Join(workloads, ", "))
			return exitcode.ConfigError
		}
		names = []string{*workload}
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		log.Printf("-seconds must be positive and -trace 0 or 1")
		return exitcode.ConfigError
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		log.Print(err)
		return exitcode.ConfigError
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		log.Print(err)
		return exitcode.ConfigError
	}
	defer os.RemoveAll(dir)

	ctx := context.Background()
	if *writeGolden != "" {
		if err := writeGoldenFile(ctx, *writeGolden, names, dir); err != nil {
			log.Print(err)
			return exitcode.ConfigError
		}
		return exitcode.OK
	}
	if *cpuprofile != "" {
		stop, err := telemetry.StartCPUProfile(*cpuprofile)
		if err != nil {
			log.Print(err)
			return exitcode.ConfigError
		}
		defer func() {
			if err := stop(); err != nil {
				log.Print(err)
			}
		}()
	}

	var reps []*report
	for _, name := range names {
		rc := runConfig{
			workload: name, seed: *seed, seconds: *seconds, trace: *trace == 1,
			workers: benchWorkers, workdir: dir,
		}
		rep, err := runWorkload(ctx, rc)
		if err != nil {
			log.Printf("%s: %v", name, err)
			return exitcode.ConfigError
		}
		reps = append(reps, rep)
	}
	if err := writeArtifacts(reps, *out, *spansOut); err != nil {
		log.Print(err)
		return exitcode.ConfigError
	}
	code := exitcode.OK
	for _, rep := range reps {
		printReport(stdout, rep)
		if !rep.Result.Correct {
			code = exitcode.Violated
		}
	}
	return code
}

// runWorkload runs one workload and fills in its summary line.
func runWorkload(ctx context.Context, rc runConfig) (*report, error) {
	rep := newReport(rc)
	var err error
	if rc.workload == "service" {
		err = runService(ctx, rc, rep)
	} else {
		err = runBatch(ctx, rc, rep, batches[rc.workload])
	}
	if err != nil {
		return nil, err
	}
	rep.Result.Correct = rep.Result.Failed == 0
	rep.Result.Metrics = rep.EndToEnd
	if rc.trace {
		rep.Result.Metrics = rep.PerLayer
	}
	return rep, nil
}

// printReport writes the human-readable table, then the JSON summary line.
func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "== %s  seed %d  %gs  trace %t  workers %d  %s\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.Workers, rep.Host)
	for _, name := range sortedKeys(rep.Result.Metrics) {
		m := rep.Result.Metrics[name]
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  (%d units; p99 %.4f ms with %d units above it)\n", len(rep.UnitMS), rep.LatencyP99MS, rep.TailSamples)
	for _, line := range rep.Accuracy {
		fmt.Fprintf(w, "  %s\n", line)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		// Every value is finite by construction (report.e2e/layer).
		log.Printf("marshal summary: %v", err)
		return
	}
	fmt.Fprintf(w, "%s\n", line)
}

// writeArtifacts writes the JSON report and the span log, atomically.
func writeArtifacts(reps []*report, out, spansOut string) error {
	if out != "" {
		body, err := json.MarshalIndent(reps, "", "  ")
		if err != nil {
			return fmt.Errorf("marshal report: %w", err)
		}
		if err := checkpoint.WriteFileAtomic(out, append(body, '\n'), 0o644); err != nil {
			return err
		}
	}
	if spansOut != "" {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, rep := range reps {
			for _, s := range rep.spans {
				if err := enc.Encode(s); err != nil {
					return fmt.Errorf("encode span: %w", err)
				}
			}
		}
		if err := checkpoint.WriteFileAtomic(spansOut, buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
