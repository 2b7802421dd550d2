package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"reaper/internal/dram"
	"reaper/internal/memctrl"
	"reaper/internal/parallel"
	"reaper/internal/telemetry"
	"reaper/internal/thermal"
)

func TestTradeoffConfigValidation(t *testing.T) {
	mk := mkStation(20)
	bad := TradeoffConfig{TargetInterval: 0}
	if _, err := ExploreTradeoffs(context.Background(), mk, bad); err == nil {
		t.Error("zero target interval not rejected")
	}
	bad = TradeoffConfig{TargetInterval: 1, DeltaIntervals: nil, DeltaTemps: []float64{0}}
	if _, err := ExploreTradeoffs(context.Background(), mk, bad); err == nil {
		t.Error("empty grid not rejected")
	}
	bad = TradeoffConfig{TargetInterval: 1, CoverageGoal: 1.5,
		DeltaIntervals: []float64{0}, DeltaTemps: []float64{0}}
	if _, err := ExploreTradeoffs(context.Background(), mk, bad); err == nil {
		t.Error("coverage goal > 1 not rejected")
	}
	bad = TradeoffConfig{TargetInterval: 1, DeltaIntervals: []float64{0}, DeltaTemps: []float64{0, -5}}
	if _, err := ExploreTradeoffs(context.Background(), mk, bad); err == nil {
		t.Error("negative delta temperature not rejected")
	}
	bad = TradeoffConfig{TargetInterval: 1, DeltaIntervals: []float64{-0.25, 0}, DeltaTemps: []float64{0}}
	if _, err := ExploreTradeoffs(context.Background(), mk, bad); err == nil {
		t.Error("negative delta interval not rejected")
	}
	bad = TradeoffConfig{TargetInterval: 1, Iterations: -2, DeltaIntervals: []float64{0}, DeltaTemps: []float64{0}}
	if _, err := ExploreTradeoffs(context.Background(), mk, bad); err == nil {
		t.Error("negative iterations not rejected")
	}
	bad = TradeoffConfig{TargetInterval: 1, Iterations: 4, MaxIterations: -1, DeltaIntervals: []float64{0}, DeltaTemps: []float64{0}}
	if _, err := ExploreTradeoffs(context.Background(), mk, bad); err == nil {
		t.Error("negative max iterations not rejected")
	}
	// Iterations defaults to 16, past the explicit cap of 8.
	bad = TradeoffConfig{TargetInterval: 1, MaxIterations: 8, DeltaIntervals: []float64{0}, DeltaTemps: []float64{0}}
	if _, err := ExploreTradeoffs(context.Background(), mk, bad); err == nil {
		t.Error("iterations > max iterations not rejected")
	}
}

// exploreOracle is ExploreTradeoffs written as the plain sequential loop it
// must equal: a fresh station for the reference run and for every point.
func exploreOracle(ctx context.Context, mk func() (*memctrl.Station, error), cfg TradeoffConfig) ([]TradeoffPoint, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	var reference *FailureSet
	if cfg.Reference == ReferenceEmpirical {
		st, err := mk()
		if err != nil {
			return nil, err
		}
		if reference, err = profileReference(st, cfg); err != nil {
			return nil, err
		}
	}
	// One sequential worker, so the parallel_* series match the grid's.
	nI := len(cfg.DeltaIntervals)
	points, err := parallel.Map(ctx, len(cfg.DeltaTemps)*nI, 1,
		func(_ context.Context, job int) (TradeoffPoint, error) {
			st, err := mk()
			if err != nil {
				return TradeoffPoint{}, err
			}
			reach := ReachConditions{DeltaInterval: cfg.DeltaIntervals[job%nI], DeltaTempC: cfg.DeltaTemps[job/nI]}
			return measurePoint(st, cfg, reference, reach)
		})
	if err != nil {
		return nil, err
	}
	summarizeGrid(ctx, points)
	return points, nil
}

// mkChamberStation is mkStation(seed) behind a thermal chamber: a station
// that refuses savepoints, so the grid must build one per point.
func mkChamberStation(seed uint64) func() (*memctrl.Station, error) {
	return func() (*memctrl.Station, error) {
		dev, err := dram.NewDevice(dram.Config{
			Geometry:  dram.Geometry{Banks: 8, RowsPerBank: 64, WordsPerRow: 256},
			Vendor:    dram.VendorB(),
			Seed:      seed,
			WeakScale: 20,
		})
		if err != nil {
			return nil, err
		}
		ch, err := thermal.NewChamber(thermal.DefaultChamberConfig())
		if err != nil {
			return nil, err
		}
		ch.SettleTo(45, 0.25, 3600)
		return memctrl.NewStation(dev, ch, memctrl.DefaultTiming())
	}
}

// TestExploreTradeoffsMatchesFreshStationOracle checks station recycling
// against exploreOracle: equal points and equal telemetry snapshots at every
// worker count, with both reference modes and through the drop-and-rebuild
// path of a station that refuses savepoints. It also pins the mkStation
// contract: one call in total at workers=1, at most one per worker.
func TestExploreTradeoffsMatchesFreshStationOracle(t *testing.T) {
	type explorer func(context.Context, func() (*memctrl.Station, error), TradeoffConfig) ([]TradeoffPoint, error)
	run := func(t *testing.T, explore explorer, mk func() (*memctrl.Station, error), cfg TradeoffConfig) ([]TradeoffPoint, []byte, int64) {
		t.Helper()
		var calls atomic.Int64
		counted := func() (*memctrl.Station, error) {
			calls.Add(1)
			return mk()
		}
		reg := telemetry.New()
		cfg.Options.Telemetry = reg
		pts, err := explore(telemetry.WithRegistry(context.Background(), reg), counted, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := reg.Snapshot().WriteJSON(&snap); err != nil {
			t.Fatal(err)
		}
		return pts, snap.Bytes(), calls.Load()
	}
	base := TradeoffConfig{
		TargetInterval: 1.024,
		TargetTempC:    45,
		DeltaIntervals: []float64{0, 0.25, 0.5},
		DeltaTemps:     []float64{0, 5},
		Iterations:     4,
		CoverageGoal:   0.9,
		MaxIterations:  8,
		Options:        Options{FreshRandomPerIteration: true, Seed: 5},
	}
	oracleRef := base
	oracleRef.Reference = ReferenceOracle
	cases := []struct {
		name     string
		mk       func() (*memctrl.Station, error)
		cfg      TradeoffConfig
		recycled bool
	}{
		{"empirical", mkStation(23), base, true},
		{"oracle-reference", mkStation(23), oracleRef, true},
		{"chamber", mkChamberStation(23), base, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, wantSnap, oracleCalls := run(t, exploreOracle, tc.mk, tc.cfg)
			for _, workers := range []int{1, 2, 8} {
				cfg := tc.cfg
				cfg.Workers = workers
				got, gotSnap, calls := run(t, ExploreTradeoffs, tc.mk, cfg)
				label := fmt.Sprintf("workers=%d", workers)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: points differ from the fresh-station oracle:\ngot  %+v\nwant %+v", label, got, want)
				}
				if !bytes.Equal(gotSnap, wantSnap) {
					t.Fatalf("%s: telemetry snapshot differs from the oracle's:\ngot  %s\nwant %s", label, gotSnap, wantSnap)
				}
				switch {
				case !tc.recycled && calls != oracleCalls:
					t.Errorf("%s: %d mkStation calls, want one per run (%d)", label, calls, oracleCalls)
				case tc.recycled && workers == 1 && calls != 1:
					t.Errorf("%s: %d mkStation calls, want 1", label, calls)
				case tc.recycled && calls > int64(workers):
					t.Errorf("%s: %d mkStation calls, want at most %d", label, calls, workers)
				}
			}
		})
	}
}

func TestExploreTradeoffsGrid(t *testing.T) {
	cfg := TradeoffConfig{
		TargetInterval: 1.024,
		TargetTempC:    45,
		DeltaIntervals: []float64{0, 0.25, 0.5},
		DeltaTemps:     []float64{0},
		Iterations:     6,
		CoverageGoal:   0.9,
		MaxIterations:  30,
		Options:        Options{FreshRandomPerIteration: true, Seed: 5},
	}
	points, err := ExploreTradeoffs(context.Background(), mkStation(21), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points, want 3", len(points))
	}

	brute := points[0]
	if brute.Reach.DeltaInterval != 0 || brute.Reach.DeltaTempC != 0 {
		t.Fatalf("first point is not the brute-force reference: %+v", brute.Reach)
	}
	if brute.RuntimeRelative != 1 {
		t.Errorf("brute-force relative runtime = %v, want 1", brute.RuntimeRelative)
	}
	if brute.TruthSize == 0 {
		t.Fatal("empty truth")
	}
	// With the empirical reference, the brute-force point scores perfectly
	// against itself (paper Figure 9 at (0,0)).
	if brute.Coverage != 1 || brute.FalsePositiveRate != 0 {
		t.Errorf("brute-force reference point: cov=%v fpr=%v, want 1/0",
			brute.Coverage, brute.FalsePositiveRate)
	}

	// Coverage must stay high along the reach axis; false positives appear.
	for i := 1; i < len(points); i++ {
		if points[i].Coverage < 0.90 {
			t.Errorf("reach coverage dropped too low at point %d: %v",
				i, points[i].Coverage)
		}
	}
	last := points[len(points)-1]
	if last.Coverage < 0.95 {
		t.Errorf("+500ms reach coverage = %v, want > 0.95", last.Coverage)
	}
	if last.FalsePositiveRate <= brute.FalsePositiveRate {
		t.Errorf("reach FPR %v not above brute-force FPR %v",
			last.FalsePositiveRate, brute.FalsePositiveRate)
	}

	// Reach profiling must reach the coverage goal in fewer or equal
	// iterations, and with RuntimeRelative <= ~1.
	if last.ReachedGoal && brute.ReachedGoal &&
		last.IterationsToGoal > brute.IterationsToGoal {
		t.Errorf("reach needed more iterations to goal: %d vs %d",
			last.IterationsToGoal, brute.IterationsToGoal)
	}
	for _, p := range points {
		if p.RuntimeSeconds <= 0 {
			t.Errorf("point %+v has non-positive runtime", p.Reach)
		}
	}
}

func TestReachSpeedupHeadline(t *testing.T) {
	// The paper's headline: profiling ~250ms above the target runs faster
	// to the same coverage than brute force at the target. On the small
	// test chip we check the direction and that the speedup is material.
	cfg := TradeoffConfig{
		TargetInterval: 1.024,
		TargetTempC:    45,
		DeltaIntervals: []float64{0, 0.25},
		DeltaTemps:     []float64{0},
		Iterations:     8,
		CoverageGoal:   0.95,
		MaxIterations:  80,
		Options:        Options{FreshRandomPerIteration: true, Seed: 9},
	}
	points, err := ExploreTradeoffs(context.Background(), mkStation(22), cfg)
	if err != nil {
		t.Fatal(err)
	}
	brute, reach := points[0], points[1]
	if !reach.ReachedGoal {
		t.Fatalf("reach profiling did not reach 95%% coverage in %d iterations", cfg.MaxIterations)
	}
	if reach.Speedup() < 1.3 {
		t.Errorf("reach speedup = %vx (brute %v s, reach %v s); want >= 1.3x",
			reach.Speedup(), brute.RuntimeSeconds, reach.RuntimeSeconds)
	}
}

func TestTradeoffPointSpeedupDegenerate(t *testing.T) {
	p := TradeoffPoint{}
	if p.Speedup() != 0 {
		t.Error("zero relative runtime should give zero speedup")
	}
	p.RuntimeRelative = 0.5
	if p.Speedup() != 2 {
		t.Error("Speedup should be 1/RuntimeRelative")
	}
}
