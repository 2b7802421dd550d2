package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"reaper/internal/dram"
	"reaper/internal/telemetry"
)

// fleetTestPopConfig is the reduced fleet the parity tests sweep: 2 chips
// per vendor on small chips, so the sequential reference stays cheap.
func fleetTestPopConfig(workers int) PopulationConfig {
	cfg := DefaultPopulationConfig()
	cfg.ChipsPerVendor = 2
	cfg.ChipBits = 4 << 20
	cfg.Workers = workers
	return cfg
}

func popJSON(t *testing.T, results []PopulationResult) string {
	t.Helper()
	b, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sequentialPopulation is the parity reference: a plain loop that builds,
// evaluates and aggregates every chip in job order on the caller's
// goroutine, sharing no code with the fleet shard executor.
func sequentialPopulation(t *testing.T, cfg PopulationConfig) []PopulationResult {
	t.Helper()
	vendors := dram.Vendors()
	chips := make([]ChipResult, len(vendors)*cfg.ChipsPerVendor)
	for job := range chips {
		cr, err := populationChip(cfg, vendors, job)
		if err != nil {
			t.Fatal(err)
		}
		chips[job] = cr
	}
	return aggregatePopulation(cfg, vendors, chips, nil)
}

// TestPopulationSweepLazyDenseParity is the lazy-execution acceptance
// property: the shard executor, at several shard sizes (0 = one fleet-wide
// shard, and one size that doesn't divide the fleet), produces results
// byte-identical to a sequential materialize-evaluate loop, at workers 1
// and 8.
func TestPopulationSweepLazyDenseParity(t *testing.T) {
	ctx := context.Background()
	ref := popJSON(t, sequentialPopulation(t, fleetTestPopConfig(1)))
	for _, workers := range []int{1, 8} {
		for _, shard := range []int{0, 1, 4, 100} {
			cfg := fleetTestPopConfig(workers)
			cfg.ShardSize = shard
			lazy, err := PopulationSweep(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := popJSON(t, lazy); got != ref {
				t.Fatalf("workers=%d shard=%d: sharded sweep not byte-identical to the sequential loop", workers, shard)
			}
		}
	}
}

// TestPopulationFleetCounters pins the fleet lifecycle metrics: over a full
// sweep every chip is materialized exactly once and evicted exactly once,
// and no shard is left active — at any worker count, since the shard walk
// (not the scheduler) drives the counters. ShardSize 0 is one fleet-wide
// shard and must count the same way.
func TestPopulationFleetCounters(t *testing.T) {
	for _, shard := range []int{4, 0} {
		for _, workers := range []int{1, 8} {
			reg := telemetry.New()
			ctx := telemetry.WithRegistry(context.Background(), reg)
			cfg := fleetTestPopConfig(workers)
			cfg.ShardSize = shard
			if _, err := PopulationSweep(ctx, cfg); err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			n := int64(cfg.ChipsPerVendor * 3)
			if got := snap.Counter("fleet_chips_materialized"); got != n {
				t.Errorf("shard=%d workers=%d: fleet_chips_materialized = %d, want %d", shard, workers, got, n)
			}
			if got := snap.Counter("fleet_evictions"); got != n {
				t.Errorf("shard=%d workers=%d: fleet_evictions = %d, want %d", shard, workers, got, n)
			}
			if got := reg.Gauge("fleet_shards_active").Value(); got != 0 {
				t.Errorf("shard=%d workers=%d: fleet_shards_active = %v after sweep, want 0", shard, workers, got)
			}
		}
	}
}

// TestPopulationSweepPartialSharded proves the fault-tolerant sweep is also
// shard-size invariant.
func TestPopulationSweepPartialSharded(t *testing.T) {
	ctx := context.Background()
	flat, _, err := PopulationSweepPartial(ctx, fleetTestPopConfig(8), tolerant(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fleetTestPopConfig(8)
	cfg.ShardSize = 2
	sharded, failures, err := PopulationSweepPartial(ctx, cfg, tolerant(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("healthy fleet reported failures: %+v", failures)
	}
	if popJSON(t, sharded) != popJSON(t, flat) {
		t.Fatal("sharded partial sweep not byte-identical to flat partial sweep")
	}
}

// TestPopulationConfigShardValidation pins the new knob's entry validation.
func TestPopulationConfigShardValidation(t *testing.T) {
	cfg := DefaultPopulationConfig()
	cfg.ShardSize = -1
	if _, err := PopulationSweep(context.Background(), cfg); err == nil {
		t.Error("negative shard size not rejected")
	}
	cfg = DefaultPopulationConfig()
	cfg.ChipsPerVendor = -3
	if _, _, err := PopulationSweepPartial(context.Background(), cfg, tolerant(1)); err == nil {
		t.Error("negative fleet not rejected by partial sweep")
	}
}

// TestSoakShardEvictionByteIdentical extends the kill-after-round-k harness
// to shard eviction: a checkpointed campaign whose segment jobs drop their
// runners on return (ShardSize bound) produces a final report — including
// the telemetry snapshot and fleet trace — byte-identical to the keep-alive
// campaign, at workers 1 and 8; and a mid-campaign kill+resume under
// eviction still lands on the same bytes.
func TestSoakShardEvictionByteIdentical(t *testing.T) {
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

		evictCfg := ckTestConfig(11, true)
		evictCfg.Workers = workers
		evictCfg.ShardSize = 1
		evictCfg.Checkpoint = &CheckpointOptions{Dir: t.TempDir(), EveryWindows: every}
		evicted, err := Soak(ctx, evictCfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := reportJSON(t, evicted); got != refJSON {
			t.Fatalf("workers=%d: shard-evicting campaign not byte-identical to keep-alive campaign", workers)
		}

		// Kill mid-campaign with eviction on, resume with a different shard
		// size (the knob is not part of the campaign identity): still the
		// same bytes.
		dir := t.TempDir()
		killCfg := ckTestConfig(11, true)
		killCfg.Workers = workers
		killCfg.ShardSize = 1
		killCfg.Checkpoint = &CheckpointOptions{Dir: dir, EveryWindows: every, StopAfterSegments: 2}
		if _, err := Soak(ctx, killCfg); !errors.Is(err, ErrInterrupted) {
			t.Fatalf("workers=%d: want ErrInterrupted, got %v", workers, err)
		}
		resumeCfg := ckTestConfig(11, true)
		resumeCfg.Workers = workers
		resumeCfg.ShardSize = 2
		resumeCfg.Checkpoint = &CheckpointOptions{Dir: dir, EveryWindows: every, Resume: true}
		resumed, err := Soak(ctx, resumeCfg)
		if err != nil {
			t.Fatalf("workers=%d: resume: %v", workers, err)
		}
		if got := reportJSON(t, resumed); got != refJSON {
			t.Fatalf("workers=%d: kill+resume under eviction not byte-identical to keep-alive campaign", workers)
		}
	}
}

// TestSoakPlainShardSizeParity covers the default path, a single segment
// with no checkpoint Dir: ShardSize clamps the pool and drops each runner as
// its job returns, so the report must be byte-identical with and without it.
func TestSoakPlainShardSizeParity(t *testing.T) {
	ctx := context.Background()
	base := testSoakConfig(9)
	base.Workers = 8
	ref, err := Soak(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	bounded := testSoakConfig(9)
	bounded.Workers = 8
	bounded.ShardSize = 1
	rep, err := Soak(ctx, bounded)
	if err != nil {
		t.Fatal(err)
	}
	if reportJSON(t, rep) != reportJSON(t, ref) {
		t.Fatal("shard-size-bounded plain campaign not byte-identical to unbounded")
	}
}

// TestSoakConfigShardValidation pins the soak knob's entry validation.
func TestSoakConfigShardValidation(t *testing.T) {
	cfg := testSoakConfig(1)
	cfg.ShardSize = -2
	if _, err := Soak(context.Background(), cfg); err == nil {
		t.Error("negative soak shard size not rejected")
	}
}
