package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"reaper/internal/checkpoint"
	"reaper/internal/core"
	"reaper/internal/dram"
	"reaper/internal/experiments"
	"reaper/internal/patterns"
	"reaper/internal/rng"
	"reaper/internal/stats"
	"reaper/internal/testprog"
)

// perLayer lists every per-layer metric with its unit, in BENCHMARK.json
// order. A row the benchmark cannot observe on a workload reads 0.
var perLayer = [][2]string{
	{"dram.materialize_64mbit_ms", "ms"},
	{"dram.materialize_16mbit_ms", "ms"},
	{"dram.materialize_8mbit_ms", "ms"},
	{"dram.materialize_1mbit_ms", "ms"},
	{"dram.sweep_full_64mbit_us", "us"},
	{"dram.sweep_cached_64mbit_us", "us"},
	{"dram.sweep_full_8mbit_us", "us"},
	{"dram.sweep_cached_8mbit_us", "us"},
	{"dram.encode_delta_8mbit_us", "us"},
	{"dram.restore_delta_8mbit_us", "us"},
	{"dram.materialize_calls", "count"},
	{"dram.sweeps_full", "count"},
	{"dram.sweeps_cached", "count"},
	{"dram.cache_hit_ratio", "ratio"},
	{"dram.materialize_share", "share"},
	{"memctrl.round_16mbit_us", "us"},
	{"memctrl.calls", "count"},
	{"memctrl.busy_share", "share"},
	{"core.reach_16mbit_ms", "ms"},
	{"core.truth_16mbit_ms", "ms"},
	{"core.self_share", "share"},
	{"core.passes", "count"},
	{"parallel.cpu_util", "ratio"},
	{"parallel.jobs", "count"},
	{"experiments.predicted_ms", "ms"},
	{"experiments.residual_share", "share"},
	{"experiments.soak_chip_window_us", "us"},
	{"experiments.fleet_materialized", "count"},
	{"experiments.fleet_evictions", "count"},
	{"checkpoint.save_ms", "ms"},
	{"checkpoint.load_ms", "ms"},
	{"checkpoint.bytes_per_barrier", "bytes"},
	{"checkpoint.overhead_share", "share"},
	{"testprog.run_device_ms", "ms"},
	{"testprog.run_profile_ms", "ms"},
	{"reaperd.submit_ms", "ms"},
	{"reaperd.queue_wait_p50_ms", "ms"},
	{"reaperd.queue_wait_p99_ms", "ms"},
	{"reaperd.run_ms", "ms"},
	{"reaperd.result_ms", "ms"},
	{"reaperd.overhead_ms", "ms"},
	{"reaperd.rejected", "count"},
	{"reaperd.in_flight_max", "count"},
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.late_ms_max", "ms"},
	{"bench.latency_p99_ms", "ms"},
	{"bench.tail_samples", "count"},
	{"bench.untraced_units_per_s", "1/s"},
	{"bench.traced_units_per_s", "1/s"},
	{"bench.trace_overhead_share", "share"},
}

// calib holds the isolated per-call costs, each the median of several calls
// at one workload's chip shape (vendor B).
type calib struct {
	mat64, mat16, mat8, mat1   float64 // ChipRef.Materialize, ms
	sweepFull64, sweepCached64 float64 // WriteAll + ReadCompareAll, us
	sweepFull8, sweepCached8   float64 // us
	encode8, restore8          float64 // delta codec, us
	round16                    float64 // one station round, us
	reach16, truth16           float64 // ms
	runDevice, runProfile      float64 // testprog.Run in-process, ms
}

// calibrate measures the per-call costs. Each call runs under the pprof
// labels of its layer (workload "calibration").
func calibrate(ctx context.Context, rc runConfig) (calib, error) {
	var c calib
	reps := func(n int) int {
		if rc.tiny {
			return 1
		}
		return n
	}
	var err error
	step := func(layer string, fn func() error) {
		if err != nil {
			return
		}
		pprof.Do(ctx, pprof.Labels("layer", layer, "workload", "calibration"), func(context.Context) { err = fn() })
	}
	spec := func(bits int64, ws float64) experiments.ChipSpec {
		return experiments.ChipSpec{Bits: bits, WeakScale: ws, Vendor: dram.VendorB(), Seed: rc.seed}
	}
	step("dram", func() (err error) {
		for _, m := range []struct {
			out  *float64
			spec experiments.ChipSpec
			reps int
		}{
			{&c.mat64, fig9Config(runConfig{}, rc.seed).Chip, 3},
			{&c.mat16, spec(16<<20, 30), 5},
			{&c.mat8, soakConfig(runConfig{}, rc.seed, "").Chip, 5},
			{&c.mat1, spec(1<<20, 40), 9},
		} {
			m.spec.Seed = rc.seed
			ref, rerr := m.spec.Ref()
			if rerr != nil {
				return rerr
			}
			if *m.out, err = medianOf(reps(m.reps), func() error { _, err := ref.Materialize(); return err }); err != nil {
				return err
			}
		}
		return nil
	})
	step("dram", func() (err error) {
		if c.sweepFull64, c.sweepCached64, err = sweepCosts(fig9Config(runConfig{}, rc.seed).Chip, reps(9)); err != nil {
			return err
		}
		soakChip := soakConfig(runConfig{}, rc.seed, "").Chip
		soakChip.Seed = rc.seed
		if c.sweepFull8, c.sweepCached8, err = sweepCosts(soakChip, reps(9)); err != nil {
			return err
		}
		c.encode8, c.restore8, err = deltaCosts(soakChip, reps(9))
		return err
	})
	step("memctrl", func() error {
		st, err := spec(16<<20, 30).NewStation()
		if err != nil {
			return err
		}
		k := uint64(0)
		c.round16, err = medianOf(reps(9), func() error {
			k++
			st.WritePattern(patterns.Random(k))
			st.DisableRefresh()
			st.Wait(1.274)
			st.EnableRefresh()
			_ = st.ReadCompare()
			return nil
		})
		c.round16 *= 1e3
		return err
	})
	step("core", func() (err error) {
		pop := populationConfig(runConfig{}, rc.seed)
		chip := spec(pop.ChipBits, pop.WeakScale)
		// Each rep profiles a fresh station; construction is not timed.
		var truth, reach []float64
		for i := 0; i < reps(3); i++ {
			st, err := chip.NewStation()
			if err != nil {
				return err
			}
			t := time.Now()
			core.Truth(st, pop.TargetInterval, 45)
			truth = append(truth, sinceMS(t))
			t = time.Now()
			if _, err := core.Reach(st, pop.TargetInterval, pop.Reach, core.Options{
				Iterations: pop.Iterations, FreshRandomPerIteration: true, Seed: chip.Seed,
			}); err != nil {
				return err
			}
			reach = append(reach, sinceMS(t))
		}
		c.truth16, c.reach16 = stats.Percentile(truth, 50), stats.Percentile(reach, 50)
		return nil
	})
	step("testprog", func() (err error) {
		for _, m := range []struct {
			out  *float64
			body []byte
			reps int
		}{
			{&c.runDevice, deviceProgram(rc.seed, false), 9},
			{&c.runProfile, profileProgram(rc.seed, false), 5},
		} {
			p, err := testprog.Load(m.body)
			if err != nil {
				return err
			}
			if *m.out, err = medianOf(reps(m.reps), func() error {
				_, err := testprog.Run(ctx, p, testprog.RunOptions{Workers: 1})
				return err
			}); err != nil {
				return err
			}
		}
		return nil
	})
	return c, err
}

// sweepCosts times WriteAll + ReadCompareAll on the chip, first with a
// fresh random pattern per sweep (every sweep classifies in full), then with
// one pattern repeated at a fixed cadence (served by the round cache).
func sweepCosts(chip experiments.ChipSpec, reps int) (full, cached float64, err error) {
	ref, err := chip.Ref()
	if err != nil {
		return 0, 0, err
	}
	dev, err := ref.Materialize()
	if err != nil {
		return 0, 0, err
	}
	now := 0.0
	sweep := func(p dram.RowData) func() error {
		return func() error {
			dev.WriteAll(p, now)
			now += 1.274
			_ = dev.ReadCompareAll(now)
			now += 0.01
			return nil
		}
	}
	k := uint64(0)
	full, _ = medianOf(reps, func() error { k++; return sweep(patterns.Random(k))() })
	warm := sweep(patterns.Checkerboard())
	_ = warm()
	cached, _ = medianOf(reps, warm)
	return full * 1e3, cached * 1e3, nil
}

// deltaCosts times EncodeDelta on a chip that has diverged from its
// construction (injected weak cells, a written pattern, a read), and
// RestoreDelta of that blob onto a freshly materialized twin.
func deltaCosts(chip experiments.ChipSpec, reps int) (encode, restore float64, err error) {
	ref, err := chip.Ref()
	if err != nil {
		return 0, 0, err
	}
	dev, err := ref.Materialize()
	if err != nil {
		return 0, 0, err
	}
	dev.InjectWeakCells(rng.Derive(chip.Seed, 0xDE17A), 64, 2, 0)
	dev.WriteAll(patterns.Checkerboard(), 0)
	_ = dev.ReadCompareAll(2.048)
	var blob []byte
	encode, err = medianOf(reps, func() error {
		e := checkpoint.NewEncoder()
		if err := dev.EncodeDelta(e); err != nil {
			return err
		}
		blob = e.Data()
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	resolve := func(name string) (dram.RowData, error) { return patterns.Parse(name) }
	var ms []float64
	for i := 0; i < reps; i++ {
		twin, err := ref.Materialize()
		if err != nil {
			return 0, 0, err
		}
		t := time.Now()
		if err := twin.RestoreDelta(checkpoint.NewDecoder(blob), resolve); err != nil {
			return 0, 0, err
		}
		ms = append(ms, sinceMS(t))
	}
	return encode * 1e3, stats.Percentile(ms, 50) * 1e3, nil
}

// soakCheckpointRows sets the checkpoint rows from the traced soak's
// checkpoint directory: Save and Load of its barrier file set into a fresh
// store, and the checkpointed, evicting campaign's wall time against the
// same campaign run with every chip resident and no checkpoint (whose
// report must be identical).
func soakCheckpointRows(ctx context.Context, rc runConfig, rep *report, ckptMS float64, want []byte) error {
	dir := filepath.Join(rc.workdir, "soak-traced-0")
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return fmt.Errorf("checkpoint rows: %w", err)
	}
	var man checkpoint.Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return fmt.Errorf("checkpoint rows: manifest: %w", err)
	}
	src, err := checkpoint.NewStore(dir)
	if err != nil {
		return err
	}
	_, files, err := src.Load(man.Identity)
	if err != nil {
		return err
	}
	var size int
	for _, b := range files {
		size += len(b)
	}
	var save, load []float64
	for i := 0; i < 5; i++ {
		dst, err := checkpoint.NewStore(filepath.Join(rc.workdir, fmt.Sprintf("ckpt-copy-%d", i)))
		if err != nil {
			return err
		}
		t := time.Now()
		if err := dst.Save(man.Seq, man.Identity, files); err != nil {
			return err
		}
		save = append(save, sinceMS(t))
		t = time.Now()
		if _, _, err := dst.Load(man.Identity); err != nil {
			return err
		}
		load = append(load, sinceMS(t))
		if err := os.RemoveAll(dst.Dir()); err != nil {
			return err
		}
	}
	rep.layer("checkpoint.save_ms", "ms", stats.Percentile(save, 50))
	rep.layer("checkpoint.load_ms", "ms", stats.Percentile(load, 50))
	rep.layer("checkpoint.bytes_per_barrier", "bytes", float64(size))

	cfg := soakConfig(rc, rc.seed, "")
	cfg.ShardSize, cfg.Checkpoint = 0, nil
	t := time.Now()
	plain, err := experiments.Soak(ctx, cfg)
	if err != nil {
		return err
	}
	plainMS := sinceMS(t)
	out, err := soakOut(rc, plain)
	if err != nil {
		return err
	}
	if want != nil && string(out.canon) != string(want) {
		rep.fail("soak seed %d: resident, uncheckpointed campaign differs from the checkpointed one", rc.seed)
	}
	rep.layer("checkpoint.overhead_share", "share", (ckptMS-plainMS)/ckptMS)
	return nil
}

// layerRows sets the per-layer metrics of a traced run from the traced
// phase's spans and registry, the calibrations, and the untraced phase.
func layerRows(rep *report, rc runConfig, tr *tracer, cal calib, untraced, traced phase) {
	t := tr.totals()
	snap := tr.reg.Snapshot()
	n := float64(len(traced.latMS))
	workers := float64(rc.workers)
	workerSec := traced.wall * workers
	per := func(name string) float64 { return float64(t.calls[name]) / n }
	full := float64(counter(snap, "dram_incr_sweeps_full_total")) / n
	fast := float64(counter(snap, "dram_incr_sweeps_fast_total")) / n

	rep.layer("dram.materialize_64mbit_ms", "ms", cal.mat64)
	rep.layer("dram.materialize_16mbit_ms", "ms", cal.mat16)
	rep.layer("dram.materialize_8mbit_ms", "ms", cal.mat8)
	rep.layer("dram.materialize_1mbit_ms", "ms", cal.mat1)
	rep.layer("dram.sweep_full_64mbit_us", "us", cal.sweepFull64)
	rep.layer("dram.sweep_cached_64mbit_us", "us", cal.sweepCached64)
	rep.layer("dram.sweep_full_8mbit_us", "us", cal.sweepFull8)
	rep.layer("dram.sweep_cached_8mbit_us", "us", cal.sweepCached8)
	rep.layer("dram.encode_delta_8mbit_us", "us", cal.encode8)
	rep.layer("dram.restore_delta_8mbit_us", "us", cal.restore8)
	rep.layer("dram.materialize_calls", "count", per("dram.materialize"))
	rep.layer("dram.sweeps_full", "count", full)
	rep.layer("dram.sweeps_cached", "count", fast)
	rep.layer("dram.cache_hit_ratio", "ratio", fast/(full+fast))
	rep.layer("dram.materialize_share", "share", t.busy["dram.materialize"]/workerSec)

	stationBusy := t.busy["memctrl.write_pattern"] + t.busy["memctrl.read_compare"]
	rep.layer("memctrl.round_16mbit_us", "us", cal.round16)
	rep.layer("memctrl.calls", "count", per("memctrl.call")+per("memctrl.write_pattern")+per("memctrl.read_compare"))
	rep.layer("memctrl.busy_share", "share", stationBusy/workerSec)

	reach := t.busy["core.reach"]
	inStation := t.childBusy["core.reach"]["memctrl.write_pattern"] + t.childBusy["core.reach"]["memctrl.read_compare"]
	rep.layer("core.reach_16mbit_ms", "ms", cal.reach16)
	rep.layer("core.truth_16mbit_ms", "ms", cal.truth16)
	rep.layer("core.self_share", "share", (reach-inStation)/reach)
	rep.layer("core.passes", "count", float64(counter(snap, "core_profiling_passes_total"))/n)

	rep.layer("parallel.cpu_util", "ratio", untraced.cpu/(untraced.wall*workers))
	rep.layer("parallel.jobs", "count", float64(counter(snap, "parallel_jobs_queued_total"))/n)

	var predicted float64
	switch rc.workload {
	case "fig9_grid":
		predicted = (per("dram.materialize")*cal.mat64 + (full*cal.sweepFull64+fast*cal.sweepCached64)/1e3) / workers
	case "population":
		predicted = (per("dram.materialize")*cal.mat16 + per("core.truth")*cal.truth16 + per("core.reach")*cal.reach16) / workers
	case "soak":
		predicted = (per("dram.materialize")*cal.mat8+
			(per("dram.restore_delta")*cal.restore8+per("dram.encode_delta")*cal.encode8+
				full*cal.sweepFull8+fast*cal.sweepCached8)/1e3)/workers +
			per("checkpoint.save")*rep.PerLayer["checkpoint.save_ms"].Value
	case "service":
		predicted = per("testprog.device")*cal.runDevice + per("testprog.profile")*cal.runProfile
	}
	measured := stats.Mean(untraced.latMS)
	rep.layer("experiments.predicted_ms", "ms", predicted)
	rep.layer("experiments.residual_share", "share", (measured-predicted)/measured)
	rep.layer("experiments.soak_chip_window_us", "us", measured*1e3*workers/per("experiments.chip_window"))
	rep.layer("experiments.fleet_materialized", "count", per("experiments.fleet_materialized"))
	rep.layer("experiments.fleet_evictions", "count", per("experiments.fleet_evictions"))

	rep.layer("testprog.run_device_ms", "ms", cal.runDevice)
	rep.layer("testprog.run_profile_ms", "ms", cal.runProfile)

	rep.layer("bench.latency_p99_ms", "ms", rep.LatencyP99MS)
	rep.layer("bench.tail_samples", "count", float64(rep.TailSamples))
	rep.layer("bench.untraced_units_per_s", "1/s", float64(len(untraced.latMS))/untraced.wall)
	rep.layer("bench.traced_units_per_s", "1/s", n/traced.wall)
	rep.layer("bench.trace_overhead_share", "share", stats.Mean(traced.latMS)/measured-1)

	for _, m := range perLayer {
		if _, ok := rep.PerLayer[m[0]]; !ok {
			rep.layer(m[0], m[1], 0)
		}
	}
}
