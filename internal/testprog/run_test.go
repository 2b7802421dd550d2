package testprog

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"reaper/internal/dram"
	"reaper/internal/experiments"
	"reaper/internal/patterns"
)

func mustLoad(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Load([]byte(src))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return p
}

func runJSON(t *testing.T, p *Program, workers int) []byte {
	t.Helper()
	res, err := Run(context.Background(), p, RunOptions{Workers: workers})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	enc, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return enc
}

// TestDevicePipelineMatchesHandCoded proves the compiler lowers device
// stages onto exactly the station primitives a hand-written Go harness
// would call: same failures, same simulated clock.
func TestDevicePipelineMatchesHandCoded(t *testing.T) {
	p := mustLoad(t, minimalDevice())
	res, err := Run(context.Background(), p, RunOptions{Workers: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Chips) != 1 {
		t.Fatalf("got %d chips, want 1", len(res.Chips))
	}
	run := res.Chips[0]

	// The same pipeline, hand-coded (chip 0 seed = program seed + 0).
	spec := experiments.ChipSpec{Bits: 1 << 20, WeakScale: 40, Vendor: dram.VendorB(), Seed: 7}
	st, err := spec.NewStation()
	if err != nil {
		t.Fatalf("NewStation: %v", err)
	}
	st.WritePattern(patterns.Checkerboard())
	st.SetAmbient(50)
	st.DisableRefresh()
	st.Wait(2)
	st.EnableRefresh()
	fails := st.ReadCompare()

	rc := run.Stages[5].ReadCompare
	if rc == nil {
		t.Fatalf("stage 5 has no read_compare result: %+v", run.Stages[5])
	}
	if rc.Failures != len(fails) {
		t.Fatalf("program found %d failures, hand-coded %d", rc.Failures, len(fails))
	}
	if rc.NewFailures != len(fails) {
		t.Fatalf("first read: new %d != total %d", rc.NewFailures, len(fails))
	}
	if len(fails) > 0 && len(rc.FailingBits) == 0 {
		t.Fatalf("output.failing_bits=8 but no bits embedded")
	}
	if len(rc.FailingBits) > 8 {
		t.Fatalf("failing_bits cap exceeded: %d", len(rc.FailingBits))
	}
	if run.ClockS != st.Clock() {
		t.Fatalf("program clock %v != hand-coded clock %v", run.ClockS, st.Clock())
	}
	cl := run.Stages[6].Classify
	if cl == nil || cl.Found != run.UniqueFailures {
		t.Fatalf("classify result inconsistent: %+v vs %d unique", cl, run.UniqueFailures)
	}
}

// TestRunDeterministicAcrossWorkers is the program-level determinism
// contract: same program bytes → byte-identical result JSON at any
// worker count, including inject and profile stages over several chips.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	src := `{
  "version": 1,
  "name": "det",
  "seed": 21,
  "fleet": {"chips": 3, "bits": 1048576, "weak_scale": 40},
  "stages": [
    {"type": "write_pattern", "pattern": "rowstripe"},
    {"type": "inject_fault", "kind": "weak_arrival", "cells": 16, "max_mu_s": 1.5},
    {"type": "profile", "target_interval_s": 1.024, "delta_interval_s": 0.25,
     "iterations": 2, "fresh_random": true},
    {"type": "inject_fault", "kind": "dpd_rescramble", "cells": 8},
    {"type": "read_compare"},
    {"type": "classify", "target_interval_s": 1.024, "target_temp_c": 45}
  ],
  "output": {"include_records": true, "failing_bits": 4, "include_metrics": true, "include_trace": true}
}`
	a := runJSON(t, mustLoad(t, src), 1)
	b := runJSON(t, mustLoad(t, src), 4)
	if string(a) != string(b) {
		t.Fatalf("result differs between workers=1 and workers=4")
	}
	c := runJSON(t, mustLoad(t, src), 4)
	if string(b) != string(c) {
		t.Fatalf("result differs between two identical runs")
	}
}

// TestTradeoffGridMatchesGoAPI is the acceptance-criteria check: a
// program expressing the Fig 9/10 grid produces byte-identical points to
// the existing Go API path (experiments.Fig9Fig10Tradeoff) for the same
// configuration.
func TestTradeoffGridMatchesGoAPI(t *testing.T) {
	src := `{
  "version": 1,
  "seed": 11,
  "fleet": {"bits": 1048576, "weak_scale": 40},
  "stages": [
    {"type": "tradeoff_grid", "target_interval_s": 1.024, "target_temp_c": 45,
     "delta_intervals_s": [0, 0.25], "delta_temps_c": [0],
     "iterations": 4, "coverage_goal": 0.9, "max_iterations": 8}
  ],
  "output": {}
}`
	res, err := Run(context.Background(), mustLoad(t, src), RunOptions{Workers: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Stages) != 1 || res.Stages[0].Tradeoff == nil {
		t.Fatalf("no tradeoff result: %+v", res.Stages)
	}

	direct, err := experiments.Fig9Fig10Tradeoff(context.Background(), experiments.Fig9Config{
		Chip:           experiments.ChipSpec{Bits: 1 << 20, WeakScale: 40, Vendor: dram.VendorB(), Seed: 11},
		TargetInterval: 1.024,
		TargetTempC:    45,
		DeltaIntervals: []float64{0, 0.25},
		DeltaTemps:     []float64{0},
		Iterations:     4,
		CoverageGoal:   0.9,
		MaxIterations:  8,
		Seed:           11,
		Workers:        2,
	})
	if err != nil {
		t.Fatalf("Fig9Fig10Tradeoff: %v", err)
	}
	got, err := json.Marshal(res.Stages[0].Tradeoff)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("program grid != Go API grid:\n%s\nvs\n%s", got, want)
	}
}

// TestSoakStageMatchesGoAPI pins the soak lowering (including the named
// scenario seed split) against a direct experiments.Soak call.
func TestSoakStageMatchesGoAPI(t *testing.T) {
	src := `{
  "version": 1,
  "seed": 5,
  "fleet": {"chips": 1, "bits": 1048576},
  "stages": [
    {"type": "soak", "hours": 6, "target_interval_s": 1.024,
     "scenario": "quiet", "controller": true}
  ],
  "output": {}
}`
	res, err := Run(context.Background(), mustLoad(t, src), RunOptions{Workers: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep := res.Stages[0].Soak
	if rep == nil {
		t.Fatalf("no soak report")
	}

	cfg := experiments.DefaultSoakConfig(5)
	cfg.Chips = 1
	cfg.Hours = 6
	cfg.TargetInterval = 1.024
	cfg.Controller = true
	cfg.Workers = 2
	cfg.Chip.Bits = 1 << 20
	sc, err := experiments.SoakScenario("quiet", 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scenario = sc
	direct, err := experiments.Soak(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Soak: %v", err)
	}
	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("program soak != Go API soak:\n%s\nvs\n%s", got, want)
	}
}

// TestRunRejectsInvalidProgram covers Run's validation entry.
func TestRunRejectsInvalidProgram(t *testing.T) {
	p := &Program{Version: Version, Seed: 1}
	if _, err := Run(context.Background(), p, RunOptions{}); err == nil ||
		!strings.Contains(err.Error(), "no stages") {
		t.Fatalf("want validation error, got %v", err)
	}
}

// TestRunProgress checks the progress callback sees every (chip, stage)
// unit exactly once and a monotonically complete Done count.
func TestRunProgress(t *testing.T) {
	src := `{
  "version": 1,
  "seed": 2,
  "fleet": {"chips": 2, "bits": 1048576, "weak_scale": 40},
  "stages": [
    {"type": "write_pattern", "pattern": "solid1"},
    {"type": "read_compare"}
  ],
  "output": {}
}`
	var calls atomic.Int64
	var sawTotal atomic.Int64
	_, err := Run(context.Background(), mustLoad(t, src), RunOptions{
		Workers: 2,
		OnProgress: func(ev ProgressEvent) {
			calls.Add(1)
			if ev.Done == ev.Total {
				sawTotal.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if calls.Load() != 4 {
		t.Fatalf("progress called %d times, want 4", calls.Load())
	}
	if sawTotal.Load() != 1 {
		t.Fatalf("Done==Total observed %d times, want exactly once", sawTotal.Load())
	}
}

// TestRunCancellation aborts a device program via context.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, mustLoad(t, minimalDevice()), RunOptions{Workers: 1})
	if err == nil {
		t.Fatalf("Run ignored cancelled context")
	}
}

// TestInjectFaultLargestStage runs the largest weak_arrival stage Load
// accepts (maxInjectCells cells) on the largest chip it accepts, the
// heaviest inject_fault a service worker can be handed. Injection must not
// pay a pass over the chip's 262144 row offsets per cell: that took about
// 6 s on a 2-CPU host, against under 1 s for one recount per stage.
func TestInjectFaultLargestStage(t *testing.T) {
	src := fmt.Sprintf(`{"version":1,"seed":3,"fleet":{"bits":%d,"weak_scale":0.001},
  "stages":[{"type":"inject_fault","kind":"weak_arrival","cells":%d,"max_mu_s":1}]}`,
		int64(maxChipBits), maxInjectCells)
	p := mustLoad(t, src)
	budget := 3 * time.Second
	if raceEnabled {
		budget = 60 * time.Second
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Run(context.Background(), p, RunOptions{Workers: 1})
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("Run: %v", o.err)
		}
		if got := o.res.Chips[0].Stages[0].Inject.Cells; got != maxInjectCells {
			t.Fatalf("injected %d cells, want %d", got, maxInjectCells)
		}
	case <-time.After(budget):
		t.Fatalf("inject_fault of %d cells on a %d-bit chip took over %v", maxInjectCells, int64(maxChipBits), budget)
	}
}
