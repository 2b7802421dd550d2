package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"reaper/internal/checkpoint"
	"reaper/internal/parallel"
	"reaper/internal/telemetry"
)

// ckTestConfig is the reduced campaign the checkpoint tests run: two chips,
// one simulated day, so a segment of 6 windows gives several barriers.
func ckTestConfig(seed uint64, instrumented bool) SoakConfig {
	cfg := DefaultSoakConfig(seed)
	cfg.Chips = 2
	cfg.Hours = 24
	if instrumented {
		cfg.Telemetry = telemetry.New()
	}
	return cfg
}

func reportJSON(t *testing.T, rep *SoakReport) string {
	t.Helper()
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// noSleep is the retry policy used by tests: tolerate failures without
// real backoff delays.
func tolerant(attempts int) parallel.RetryPolicy {
	return parallel.RetryPolicy{Attempts: attempts, Sleep: func(time.Duration) {}}
}

// TestSoakCheckpointMatchesPlainCampaign proves segmentation alone changes
// nothing: an uninstrumented campaign checkpointed every 6 windows reports
// byte-identically to the same campaign without a Dir, which the one soak
// executor runs as a single segment with no store.
func TestSoakCheckpointMatchesPlainCampaign(t *testing.T) {
	ctx := context.Background()
	plainCfg := ckTestConfig(11, false)
	plain, err := Soak(ctx, plainCfg)
	if err != nil {
		t.Fatal(err)
	}
	ckCfg := ckTestConfig(11, false)
	ckCfg.Checkpoint = &CheckpointOptions{Dir: t.TempDir(), EveryWindows: 6}
	checkpointed, err := Soak(ctx, ckCfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportJSON(t, checkpointed), reportJSON(t, plain); got != want {
		t.Fatal("checkpointed campaign report differs from the single-segment campaign")
	}
}

// TestSoakCheckpointResumeByteIdentical is the tentpole property test: for
// every barrier k, a campaign killed after its k-th checkpoint and resumed
// in a fresh process state produces a final report byte-identical to the
// uninterrupted run — including the telemetry snapshot and fleet trace —
// at worker counts 1 and 8.
func TestSoakCheckpointResumeByteIdentical(t *testing.T) {
	ctx := context.Background()
	const every = 6
	for _, workers := range []int{1, 8} {
		refCfg := ckTestConfig(11, true)
		refCfg.Workers = workers
		refCfg.Checkpoint = &CheckpointOptions{Dir: t.TempDir(), EveryWindows: every}
		ref, err := Soak(ctx, refCfg)
		if err != nil {
			t.Fatal(err)
		}
		refJSON := reportJSON(t, ref)

		killed := 0
		for k := 1; k <= 64; k++ {
			dir := t.TempDir()
			run1 := ckTestConfig(11, true)
			run1.Workers = workers
			run1.Checkpoint = &CheckpointOptions{Dir: dir, EveryWindows: every, StopAfterSegments: k}
			rep, err := Soak(ctx, run1)
			if err == nil {
				// The campaign has fewer than k barriers: it completed
				// uninterrupted, closing the property sweep.
				if got := reportJSON(t, rep); got != refJSON {
					t.Fatalf("workers=%d k=%d: uninterrupted tail run differs from reference", workers, k)
				}
				break
			}
			if !errors.Is(err, ErrInterrupted) {
				t.Fatalf("workers=%d k=%d: %v", workers, k, err)
			}
			killed++
			run2 := ckTestConfig(11, true)
			run2.Workers = workers
			run2.Checkpoint = &CheckpointOptions{Dir: dir, EveryWindows: every, Resume: true}
			resumed, err := Soak(ctx, run2)
			if err != nil {
				t.Fatalf("workers=%d k=%d: resume: %v", workers, k, err)
			}
			if got := reportJSON(t, resumed); got != refJSON {
				t.Fatalf("workers=%d: report after kill at barrier %d and resume is not byte-identical to the uninterrupted run", workers, k)
			}
		}
		if killed < 2 {
			t.Fatalf("workers=%d: campaign produced only %d interruptible barriers; property sweep is degenerate", workers, killed)
		}
	}
}

// TestSoakCheckpointCrashInjectionByteIdentical drives the crash-injection
// harness: seed-driven worker kills at segment starts are retried from the
// start-of-segment state, and the final report is byte-identical to a
// crash-free run — both checkpointed and on the default path without a Dir,
// where one segment spans the horizon.
func TestSoakCheckpointCrashInjectionByteIdentical(t *testing.T) {
	ctx := context.Background()
	clean := ckTestConfig(13, false)
	clean.Workers = 8
	clean.ShardPolicy = tolerant(3)
	clean.Checkpoint = &CheckpointOptions{Dir: t.TempDir(), EveryWindows: 6}
	ref, err := Soak(ctx, clean)
	if err != nil {
		t.Fatal(err)
	}

	for _, withDir := range []bool{true, false} {
		plan := newCrashPlan(0xC4A54, 0.9)
		crashy := ckTestConfig(13, false)
		crashy.Workers = 8
		crashy.ShardPolicy = tolerant(3)
		crashy.Checkpoint = plan.arm()
		if withDir {
			crashy.Checkpoint.Dir, crashy.Checkpoint.EveryWindows = t.TempDir(), 6
		}
		rep, err := Soak(ctx, crashy)
		if err != nil {
			t.Fatalf("withDir=%v: %v", withDir, err)
		}
		if plan.firedCount() == 0 {
			t.Fatalf("withDir=%v: crash plan never fired; the harness tested nothing", withDir)
		}
		if rep.PartialCoverage || len(rep.Quarantined) != 0 {
			t.Fatalf("withDir=%v: transient crashes must heal via retry, got quarantine %+v", withDir, rep.Quarantined)
		}
		if got, want := reportJSON(t, rep), reportJSON(t, ref); got != want {
			t.Fatalf("withDir=%v: crash-injected campaign (%d kills) not byte-identical to crash-free run", withDir, plan.firedCount())
		}
		t.Logf("withDir=%v: recovered from %d injected crashes with a byte-identical report", withDir, plan.firedCount())
	}
}

// TestSoakPoisonShardQuarantined proves a persistently failing shard no
// longer aborts the campaign, with or without a checkpoint Dir: it exhausts
// its retries, lands in quarantine having completed no windows, and the
// surviving chips report exactly what a healthy campaign reports for them.
func TestSoakPoisonShardQuarantined(t *testing.T) {
	ctx := context.Background()
	healthy := ckTestConfig(17, false)
	healthy.Checkpoint = &CheckpointOptions{Dir: t.TempDir(), EveryWindows: 6}
	ref, err := Soak(ctx, healthy)
	if err != nil {
		t.Fatal(err)
	}

	// poisoned returns checkpoint options whose crash plan kills chip 1 at
	// every execution.
	poisoned := func(withDir bool) *CheckpointOptions {
		plan := newCrashPlan(0, 0)
		plan.poisonChips(1)
		ck := plan.arm()
		if withDir {
			ck.Dir, ck.EveryWindows = t.TempDir(), 6
		}
		return ck
	}
	for _, withDir := range []bool{true, false} {
		cfg := ckTestConfig(17, false)
		cfg.ShardPolicy = tolerant(2)
		cfg.Checkpoint = poisoned(withDir)
		rep, err := Soak(ctx, cfg)
		if err != nil {
			t.Fatalf("withDir=%v: %v", withDir, err)
		}
		if !rep.PartialCoverage || len(rep.Quarantined) != 1 {
			t.Fatalf("withDir=%v: poisoned shard not quarantined: %+v", withDir, rep.Quarantined)
		}
		q := rep.Quarantined[0]
		if q.Chip != 1 || q.Windows != 0 || q.Attempts != 2 || !strings.Contains(q.Reason, "injected crash") {
			t.Fatalf("withDir=%v: quarantine record = %+v", withDir, q)
		}
		if len(rep.ChipReports) != 1 || rep.ChipReports[0].Chip != 0 {
			t.Fatalf("withDir=%v: surviving chip reports = %+v", withDir, rep.ChipReports)
		}
		if got, want := reportJSON(t, &SoakReport{ChipReports: rep.ChipReports}), reportJSON(t, &SoakReport{ChipReports: ref.ChipReports[:1]}); got != want {
			t.Fatalf("withDir=%v: surviving chip's report differs from the healthy campaign", withDir)
		}

		// Without a shard policy the historical fail-fast contract holds: the
		// poisoned shard aborts the campaign with its error.
		abortCfg := ckTestConfig(17, false)
		abortCfg.Checkpoint = poisoned(withDir)
		if _, err := Soak(ctx, abortCfg); err == nil || !strings.Contains(err.Error(), "chip 1") {
			t.Fatalf("withDir=%v: fail-fast campaign error = %v, want poisoned chip 1 abort", withDir, err)
		}
	}
}

// TestSoakCheckpointCorruptionFallback corrupts the newest snapshot's state
// files and checks resume falls back to the previous manifest generation,
// still finishing with a byte-identical report; with both generations
// corrupted, resume refuses to run.
func TestSoakCheckpointCorruptionFallback(t *testing.T) {
	ctx := context.Background()
	refCfg := ckTestConfig(11, false)
	refCfg.Checkpoint = &CheckpointOptions{Dir: t.TempDir(), EveryWindows: 6}
	ref, err := Soak(ctx, refCfg)
	if err != nil {
		t.Fatal(err)
	}
	refJSON := reportJSON(t, ref)

	dir := t.TempDir()
	run1 := ckTestConfig(11, false)
	run1.Checkpoint = &CheckpointOptions{Dir: dir, EveryWindows: 6, StopAfterSegments: 2}
	if _, err := Soak(ctx, run1); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("expected interruption after 2 barriers, got %v", err)
	}

	// Flip one byte in every newest-generation (seq 2) state file: checksum
	// verification must reject the whole generation and fall back to seq 1.
	corrupted := 0
	for _, name := range []string{chipFile(0, 2), chipFile(1, 2), campaignFileName(2)} {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted++
	}
	if corrupted == 0 {
		t.Fatal("no state files corrupted; test is vacuous")
	}

	run2 := ckTestConfig(11, false)
	run2.Checkpoint = &CheckpointOptions{Dir: dir, EveryWindows: 6, Resume: true}
	rep, err := Soak(ctx, run2)
	if err != nil {
		t.Fatalf("resume after corrupting newest generation: %v", err)
	}
	if got := reportJSON(t, rep); got != refJSON {
		t.Fatal("report resumed from the fallback generation is not byte-identical")
	}

	// Truncate the previous generation's files too: now no loadable
	// snapshot remains and resume must fail loudly rather than restart.
	dir2 := t.TempDir()
	run3 := ckTestConfig(11, false)
	run3.Checkpoint = &CheckpointOptions{Dir: dir2, EveryWindows: 6, StopAfterSegments: 2}
	if _, err := Soak(ctx, run3); !errorsIsInterrupted(err) {
		t.Fatalf("expected interruption, got %v", err)
	}
	for _, seq := range []int{1, 2} {
		for _, name := range []string{chipFile(0, seq), chipFile(1, seq), campaignFileName(seq)} {
			path := filepath.Join(dir2, name)
			data, err := os.ReadFile(path)
			if err != nil {
				continue // seq-1 files may have been pruned
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	run4 := ckTestConfig(11, false)
	run4.Checkpoint = &CheckpointOptions{Dir: dir2, EveryWindows: 6, Resume: true}
	if _, err := Soak(ctx, run4); err == nil {
		t.Fatal("resume with every generation truncated did not fail")
	}
}

func errorsIsInterrupted(err error) bool { return errors.Is(err, ErrInterrupted) }

// TestSoakCheckpointIdentityMismatch pins the config-binding guard: a
// checkpoint directory written by one campaign refuses a different one.
func TestSoakCheckpointIdentityMismatch(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	run1 := ckTestConfig(11, false)
	run1.Checkpoint = &CheckpointOptions{Dir: dir, EveryWindows: 6, StopAfterSegments: 1}
	if _, err := Soak(ctx, run1); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("expected interruption, got %v", err)
	}
	other := ckTestConfig(12, false) // different campaign seed
	other.Checkpoint = &CheckpointOptions{Dir: dir, EveryWindows: 6, Resume: true}
	if _, err := Soak(ctx, other); !errors.Is(err, checkpoint.ErrIdentityMismatch) {
		t.Fatalf("resume with mismatched config = %v, want ErrIdentityMismatch", err)
	}
}

// fuzzSoakConfig is the campaign FuzzSoakRestore restores into: one
// instrumented 1 Mbit chip, so that each execution stays cheap.
func fuzzSoakConfig(t testing.TB) SoakConfig {
	cfg := DefaultSoakConfig(5)
	cfg.Chips = 1
	cfg.Hours = 48
	cfg.Chip.Bits = 1 << 20
	cfg.Telemetry = telemetry.New()
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// FuzzSoakRestore fuzzes the soak chip blob, the checkpoint file that
// carries a chip's runner, station, device delta, ArchShield, ECC,
// scrubber, injector, firmware and trace state. Any byte string must fail
// restoreSoakRunner with an error, or restore a runner that runs two scrub
// windows, encodes and finalizes without a panic. The seeds are the blobs
// of a fresh chip and of the same chip 30 windows into its campaign. Plain
// go test runs the seed corpus; make fuzz-quick mutates it.
func FuzzSoakRestore(f *testing.F) {
	cfg := fuzzSoakConfig(f)
	const seed = 77
	r, err := restoreSoakRunner(cfg, 0, seed, nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, windows := range []int{0, 30} {
		if windows > 0 {
			if _, err := r.runWindows(context.Background(), windows); err != nil {
				f.Fatal(err)
			}
		}
		blob, err := r.encodeState()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := restoreSoakRunner(fuzzSoakConfig(t), 0, seed, data)
		if err != nil {
			return
		}
		// A restored chip may still fail a window with an error; it must
		// never panic.
		if _, err := r.runWindows(context.Background(), 2); err == nil {
			_, _ = r.encodeState()
		}
		_ = r.finalize()
	})
}

// FuzzCampaignMeta fuzzes the campaign meta file, the first checkpoint
// record a resumed soak reads: barrier progress, quarantined chips and the
// telemetry registry snapshot. Any byte string must fail decodeCampaignMeta
// or yield a meta whose snapshot restores into a fresh registry,
// re-snapshots and re-encodes without a panic. The seeds are one meta with
// a snapshot of every metric kind and one without a snapshot. Plain go test
// runs the seed corpus; make fuzz-quick mutates it.
func FuzzCampaignMeta(f *testing.F) {
	const chips = 2
	reg := telemetry.New()
	reg.Counter("soak_windows_total", telemetry.L("chip", "0")).Add(24)
	reg.Gauge("soak_uber", telemetry.L("chip", "1")).Set(1.5e-5)
	h := reg.Histogram("soak_window_ms", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 7, 250} {
		h.Observe(v)
	}
	for _, snap := range []*telemetry.Snapshot{reg.Snapshot(), nil} {
		f.Add(encodeCampaignMeta(&campaignMeta{
			segments:    3,
			done:        []bool{true, false},
			windowsDone: []int{72, 48},
			quarantined: []QuarantinedShard{{Chip: 1, Seed: 9, Windows: 48, Attempts: 2, Reason: "window failed"}},
			snapshot:    snap,
		}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeCampaignMeta(data, chips)
		if err != nil {
			return
		}
		fresh := telemetry.New()
		fresh.RestoreSnapshot(m.snapshot)
		if m.snapshot != nil {
			m.snapshot = fresh.Snapshot()
		}
		_ = encodeCampaignMeta(m)
	})
}
