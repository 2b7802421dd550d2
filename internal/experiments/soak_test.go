package experiments

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden soak report snapshots")

// testSoakConfig is the reduced campaign used by the acceptance tests: two
// chips, five simulated days, default fault scenario.
func testSoakConfig(seed uint64) SoakConfig {
	cfg := DefaultSoakConfig(seed)
	cfg.Chips = 2
	cfg.Hours = 120
	return cfg
}

// TestSoakControllerSurvivesWhereBaselineViolates is the PR's acceptance
// criterion: under the default fault scenario the closed-loop resilience
// controller keeps every chip's UBER within the configured target for the
// full horizon, while the identical open-loop system demonstrably violates
// it.
func TestSoakControllerSurvivesWhereBaselineViolates(t *testing.T) {
	ctx := context.Background()

	base := testSoakConfig(5)
	base.Controller = false
	baseline, err := Soak(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Survived {
		t.Fatalf("open-loop baseline survived (worst UBER %.3g <= %.3g); the scenario is too weak to mean anything",
			baseline.WorstUBER, baseline.MaxUBER)
	}

	ctl := testSoakConfig(5)
	ctl.Controller = true
	controlled, err := Soak(ctx, ctl)
	if err != nil {
		t.Fatal(err)
	}
	if !controlled.Survived {
		t.Fatalf("resilience controller failed the soak: worst UBER %.3g > %.3g",
			controlled.WorstUBER, controlled.MaxUBER)
	}
	if controlled.WorstUBER >= baseline.WorstUBER {
		t.Errorf("controller worst UBER %.3g not below baseline %.3g",
			controlled.WorstUBER, baseline.WorstUBER)
	}
	// The controller must actually have *done* something: early rounds,
	// and degradation on the chips that needed it.
	var early, degrades int
	for _, c := range controlled.ChipReports {
		early += c.EarlyRounds
		degrades += c.DegradeEvents
	}
	if early == 0 {
		t.Error("controller never scheduled an early reprofile")
	}
	if degrades == 0 {
		t.Error("controller never degraded the refresh interval")
	}
	t.Logf("baseline worst UBER %.3g (%d UE windows) vs controller %.3g (%d UE windows), %d early rounds, %d degrades",
		baseline.WorstUBER, baseline.TotalViolationWindow,
		controlled.WorstUBER, controlled.TotalViolationWindow, early, degrades)
}

// TestSoakDeterministicAcrossWorkers pins the fault-injection determinism
// guarantee: a fixed campaign seed produces a bit-for-bit identical
// survival report (including every fault event and controller event) at
// any worker count.
func TestSoakDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *SoakReport {
		cfg := DefaultSoakConfig(9)
		cfg.Chips = 2
		cfg.Hours = 48
		cfg.Workers = workers
		rep, err := Soak(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	seq := run(1)
	par := run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("soak reports differ between workers=1 and workers=8")
	}
	seqJSON, err := json.Marshal(seq)
	if err != nil {
		t.Fatal(err)
	}
	parJSON, err := json.Marshal(par)
	if err != nil {
		t.Fatal(err)
	}
	if string(seqJSON) != string(parJSON) {
		t.Fatal("serialized soak reports not byte-identical across worker counts")
	}
}

// TestSoakReportSnapshot locks the pinned-seed quick-soak report against a
// golden file, so any change to the fault injector's draw sequence, the
// controller's policy ladder, or the report schema shows up as a diff.
// Regenerate intentionally with: go test ./internal/experiments/ -run
// Snapshot -update
func TestSoakReportSnapshot(t *testing.T) {
	cfg := DefaultSoakConfig(1)
	cfg.Chips = 2
	cfg.Hours = 48
	rep, err := Soak(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "soak_quick_seed1.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if string(got) != string(want) {
		t.Fatalf("soak report drifted from golden snapshot %s (regenerate with -update if intentional)", golden)
	}
}

func TestSoakConfigValidation(t *testing.T) {
	valid := func(mutate func(*SoakConfig)) SoakConfig {
		c := SoakConfig{Chips: 1, Hours: 1, TargetInterval: 1}
		mutate(&c)
		return c
	}
	for _, tc := range []struct {
		name string
		cfg  SoakConfig
	}{
		{"zero chips", valid(func(c *SoakConfig) { c.Chips = 0 })},
		{"zero horizon", valid(func(c *SoakConfig) { c.Hours = 0 })},
		{"NaN horizon", valid(func(c *SoakConfig) { c.Hours = math.NaN() })},
		{"zero target interval", valid(func(c *SoakConfig) { c.TargetInterval = 0 })},
		{"NaN target interval", valid(func(c *SoakConfig) { c.TargetInterval = math.NaN() })},
		{"negative window", valid(func(c *SoakConfig) { c.WindowHours = -1 })},
		{"NaN window", valid(func(c *SoakConfig) { c.WindowHours = math.NaN() })},
		{"negative cadence", valid(func(c *SoakConfig) { c.CadenceHours = -3 })},
		{"negative max UBER", valid(func(c *SoakConfig) { c.MaxUBER = -5 })},
		{"negative checkpoint cadence", valid(func(c *SoakConfig) {
			c.Checkpoint = &CheckpointOptions{Dir: t.TempDir(), EveryWindows: -1}
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Soak(context.Background(), tc.cfg); err == nil {
				t.Errorf("%+v not rejected", tc.cfg)
			}
		})
	}

	// Zero still means the documented default.
	c := valid(func(c *SoakConfig) { c.Checkpoint = &CheckpointOptions{} })
	if err := c.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	if c.WindowHours != 1 || c.CadenceHours != 24 || c.MaxUBER != 1e-4 {
		t.Errorf("zero window, cadence and max UBER filled as %v h, %v h, %v; want 1 h, 24 h, 1e-4",
			c.WindowHours, c.CadenceHours, c.MaxUBER)
	}
}
