package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reaper/internal/checkpoint"
	"reaper/internal/telemetry"
)

// ckTestConfig is the reduced campaign the checkpoint tests run: two chips,
// one simulated day, so a save every 6 windows gives each chip 4 saves.
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

// TestSoakCheckpointMatchesPlainCampaign proves saving alone changes
// nothing: an uninstrumented campaign checkpointed every 6 windows reports
// byte-identically to the same campaign without a Dir, whose chips the one
// soak executor runs to the horizon with no store.
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
		t.Fatal("checkpointed campaign report differs from the campaign without a store")
	}
}

// TestSoakCheckpointResumeByteIdentical is the tentpole property test: for
// every k, a campaign whose chips are killed after their k-th save and
// resumed in a fresh process state produces a final report byte-identical
// to the uninterrupted run — including the telemetry snapshot and fleet
// trace — at worker counts 1 and 8.
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
			run1.Checkpoint = &CheckpointOptions{Dir: dir, EveryWindows: every, StopAfterCheckpoints: k}
			rep, err := Soak(ctx, run1)
			if err == nil {
				// Every chip reached the horizon by its k-th save: the
				// campaign completed uninterrupted, closing the property
				// sweep.
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
				t.Fatalf("workers=%d: report after kill at save %d and resume is not byte-identical to the uninterrupted run", workers, k)
			}
		}
		if killed < 2 {
			t.Fatalf("workers=%d: campaign produced only %d interruptible saves; property sweep is degenerate", workers, killed)
		}
	}
}

// TestSoakCheckpointCrashInjectionByteIdentical drives the crash-injection
// harness: seed-driven worker kills before a chip's segments (its runs
// between saves) are retried from the chip's newest save, and the final
// report is byte-identical to a crash-free run — both checkpointed and on
// the default path without a Dir, where one segment spans the horizon. A
// chip has 4 segments (24 windows, a save every 6) and each may be killed
// once, so 5 attempts heal every drawn kill.
func TestSoakCheckpointCrashInjectionByteIdentical(t *testing.T) {
	ctx := context.Background()
	const attempts = 5
	clean := ckTestConfig(13, false)
	clean.Workers = 8
	clean.ShardAttempts = attempts
	clean.Checkpoint = &CheckpointOptions{Dir: t.TempDir(), EveryWindows: 6}
	ref, err := Soak(ctx, clean)
	if err != nil {
		t.Fatal(err)
	}

	for _, withDir := range []bool{true, false} {
		plan := newCrashPlan(0xC4A54, 0.9)
		crashy := ckTestConfig(13, false)
		crashy.Workers = 8
		crashy.ShardAttempts = attempts
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
		cfg.ShardAttempts = 2
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

		// Without shard attempts the fail-fast contract holds: the poisoned
		// shard fails the campaign with its error.
		abortCfg := ckTestConfig(17, false)
		abortCfg.Checkpoint = poisoned(withDir)
		if _, err := Soak(ctx, abortCfg); err == nil || !strings.Contains(err.Error(), "chip 1") {
			t.Fatalf("withDir=%v: fail-fast campaign error = %v, want poisoned chip 1 abort", withDir, err)
		}
	}
}

// manifestFiles lists the state files a manifest generation references.
func manifestFiles(t *testing.T, dir, name string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	var m checkpoint.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range m.Files {
		names = append(names, f.Name)
	}
	return names
}

// TestSoakCheckpointCorruptionFallback corrupts the one chip file the
// newest snapshot added and checks resume falls back to the previous
// manifest generation, still finishing with a byte-identical report; with
// every file of both generations truncated, resume refuses to run.
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
	run1.Checkpoint = &CheckpointOptions{Dir: dir, EveryWindows: 6, StopAfterCheckpoints: 2}
	if _, err := Soak(ctx, run1); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("expected interruption after 2 saves per chip, got %v", err)
	}

	// Flip one byte in the file the newest generation added: checksum
	// verification must reject the generation and fall back to the previous
	// one, which holds that chip's earlier save.
	prev := map[string]bool{}
	for _, name := range manifestFiles(t, dir, "manifest.prev.json") {
		prev[name] = true
	}
	var added []string
	for _, name := range manifestFiles(t, dir, "manifest.json") {
		if !prev[name] {
			added = append(added, name)
		}
	}
	if len(added) != 1 {
		t.Fatalf("newest generation added %v, want one chip file", added)
	}
	path := filepath.Join(dir, added[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
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
	run3.Checkpoint = &CheckpointOptions{Dir: dir2, EveryWindows: 6, StopAfterCheckpoints: 2}
	if _, err := Soak(ctx, run3); !errorsIsInterrupted(err) {
		t.Fatalf("expected interruption, got %v", err)
	}
	for _, gen := range []string{"manifest.json", "manifest.prev.json"} {
		for _, name := range manifestFiles(t, dir2, gen) {
			path := filepath.Join(dir2, name)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
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

// TestSoakShouldStopLeavesUnstartedChips pins the signal path on one
// worker: a stop requested at chip 0's first save stops chip 0 there and
// never starts chip 1, and the resumed campaign reports byte-identically
// to an uninterrupted one.
func TestSoakShouldStopLeavesUnstartedChips(t *testing.T) {
	ctx := context.Background()
	ref, err := Soak(ctx, ckTestConfig(11, true))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	stopped := false
	run1 := ckTestConfig(11, true)
	run1.Workers = 1
	run1.Checkpoint = &CheckpointOptions{Dir: dir, EveryWindows: 6, ShouldStop: func() bool {
		// False at chip 0's start, true at every later poll.
		was := stopped
		stopped = true
		return was
	}}
	if _, err := Soak(ctx, run1); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if files := manifestFiles(t, dir, "manifest.json"); len(files) != 1 || files[0] != chipFile(0, 6) {
		t.Fatalf("saved %v, want only chip 0 after 6 windows", files)
	}
	run2 := ckTestConfig(11, true)
	run2.Checkpoint = &CheckpointOptions{Dir: dir, EveryWindows: 6, Resume: true}
	resumed, err := Soak(ctx, run2)
	if err != nil {
		t.Fatal(err)
	}
	if reportJSON(t, resumed) != reportJSON(t, ref) {
		t.Fatal("report after a stop and resume is not byte-identical to the uninterrupted run")
	}
}

// TestSoakCheckpointIdentityMismatch pins the config-binding guard: a
// checkpoint directory written by one campaign refuses a different one.
func TestSoakCheckpointIdentityMismatch(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	run1 := ckTestConfig(11, false)
	run1.Checkpoint = &CheckpointOptions{Dir: dir, EveryWindows: 6, StopAfterCheckpoints: 1}
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

// FuzzSoakRestore fuzzes the soak chip blob, the only checkpoint file a
// resumed soak reads: it carries a chip's runner, station, device delta,
// ArchShield, ECC, scrubber, injector, firmware, trace and telemetry
// registry state. Any byte string must fail restoreSoakRunner with an
// error, or restore a runner that runs two scrub windows, encodes,
// finalizes and merges its registry into the campaign's without a panic.
// The seeds are the blobs of a fresh instrumented chip and of the same chip
// 30 windows into its campaign, so they carry a registry snapshot of every
// metric kind. Plain go test runs the seed corpus; make fuzz-quick mutates
// it.
func FuzzSoakRestore(f *testing.F) {
	cfg := fuzzSoakConfig(f)
	const seed = 77
	r, err := restoreSoakRunner(cfg, 0, seed, nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, windows := range []int{0, 30} {
		if windows > 0 {
			if err := r.runWindows(context.Background(), windows); err != nil {
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
		cfg := fuzzSoakConfig(t)
		r, err := restoreSoakRunner(cfg, 0, seed, data)
		if err != nil {
			return
		}
		// A restored chip may still fail a window with an error; it must
		// never panic.
		if err := r.runWindows(context.Background(), 2); err == nil {
			_, _ = r.encodeState()
		}
		_ = r.finalize()
		cfg.Telemetry.MergeSnapshot(r.reg.Snapshot())
	})
}
