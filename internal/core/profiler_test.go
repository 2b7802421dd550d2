package core

import (
	"math"
	"testing"

	"reaper/internal/dram"
	"reaper/internal/memctrl"
	"reaper/internal/patterns"
	"reaper/internal/perfmodel"
)

// newStation builds a small, amplified chip for profiling tests. Each call
// with the same seed reproduces the identical chip and stochastic stream.
func newStation(t testing.TB, seed uint64) *memctrl.Station {
	t.Helper()
	st, err := mkStation(seed)()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func mkStation(seed uint64) func() (*memctrl.Station, error) {
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
		return memctrl.NewStation(nil, dev)
	}
}

func TestBruteForceValidation(t *testing.T) {
	st := newStation(t, 1)
	if _, err := BruteForce(nil, 1, Options{}); err == nil {
		t.Error("nil station not rejected")
	}
	if _, err := BruteForce(st, 0, Options{}); err == nil {
		t.Error("zero interval not rejected")
	}
	if _, err := BruteForce(st, -1, Options{}); err == nil {
		t.Error("negative interval not rejected")
	}
}

func TestBruteForceFindsFailures(t *testing.T) {
	st := newStation(t, 2)
	res, err := BruteForce(st, 2.048, Options{Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures.Len() == 0 {
		t.Fatal("no failures found at 2048ms")
	}
	if res.Iterations != 4 {
		t.Errorf("Iterations = %d, want 4", res.Iterations)
	}
	// 4 iterations x 12 standard patterns.
	if len(res.Records) != 48 {
		t.Errorf("Records = %d, want 48", len(res.Records))
	}
	if res.ProfilingInterval != 2.048 {
		t.Errorf("ProfilingInterval = %v", res.ProfilingInterval)
	}
}

// TestBruteForceRuntimeMatchesEquation9 ties the station clock to the
// analytic model Figures 11-13 use: a brute-force round advances the clock
// by perfmodel's Equation 9 runtime for the same capacity, pattern count and
// iterations. The station sums pass by pass, so the two agree to rounding,
// not bit for bit.
func TestBruteForceRuntimeMatchesEquation9(t *testing.T) {
	const tREFI = 1.024
	ndp := len(patterns.StandardWithInverses(0))
	for _, mbit := range []int64{1, 8, 64} {
		dev, err := dram.NewDevice(dram.Config{
			Geometry: dram.GeometryForBits(mbit << 20),
			Vendor:   dram.VendorB(),
			Seed:     uint64(mbit),
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := memctrl.NewStation(nil, dev)
		if err != nil {
			t.Fatal(err)
		}
		for _, iters := range []int{1, 3} {
			start := st.Clock()
			res, err := BruteForce(st, tREFI, Options{Iterations: iters})
			if err != nil {
				t.Fatal(err)
			}
			want := perfmodel.RoundConfig{
				TREFI: tREFI, NumPatterns: ndp, NumIterations: iters,
				TotalBytes: dev.Geometry().TotalBytes(),
			}.RoundSeconds()
			for name, got := range map[string]float64{
				"clock advance": st.Clock() - start,
				"runtime":       res.RuntimeSeconds(),
			} {
				if math.Abs(got-want) > 1e-12*want {
					t.Errorf("%d Mbit, %d iterations: %s = %.17g s, want Eq 9's %.17g", mbit, iters, name, got, want)
				}
			}
			if w := tREFI * float64(ndp*iters); math.Abs(res.Stats.WaitSeconds-w) > 1e-12*w {
				t.Errorf("%d Mbit, %d iterations: wait seconds = %v, want %v", mbit, iters, res.Stats.WaitSeconds, w)
			}
		}
	}
}

func TestBruteForceCoverageGrowsWithIterations(t *testing.T) {
	st := newStation(t, 4)
	truth := Truth(st, 2.048, 45)
	if truth.Len() < 50 {
		t.Fatalf("truth too small: %d", truth.Len())
	}
	var covAt1, covAtEnd float64
	_, err := BruteForce(st, 2.048, Options{
		Iterations:              12,
		FreshRandomPerIteration: true,
		OnIteration: func(r *Result) bool {
			cov := Coverage(r.Failures, truth)
			if r.Iterations == 1 {
				covAt1 = cov
			}
			covAtEnd = cov
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if covAtEnd <= covAt1 {
		t.Errorf("coverage did not grow: %v -> %v", covAt1, covAtEnd)
	}
	if covAtEnd < 0.5 {
		t.Errorf("brute-force coverage after 12 iterations only %v", covAtEnd)
	}
}

func TestOnIterationEarlyStop(t *testing.T) {
	st := newStation(t, 5)
	res, err := BruteForce(st, 1.024, Options{
		Iterations:  16,
		OnIteration: func(r *Result) bool { return r.Iterations < 3 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 3 {
		t.Errorf("early stop at %d iterations, want 3", res.Iterations)
	}
}

func TestReachValidation(t *testing.T) {
	st := newStation(t, 6)
	if _, err := Reach(st, 1.024, ReachConditions{DeltaInterval: -0.1}, Options{}); err == nil {
		t.Error("negative delta interval not rejected")
	}
	if _, err := Reach(st, 1.024, ReachConditions{DeltaTempC: -1}, Options{}); err == nil {
		t.Error("negative delta temp not rejected")
	}
}

func TestReachBeatsBruteForceCoverage(t *testing.T) {
	const target = 1.024
	const iters = 8

	stBrute := newStation(t, 7)
	truth := Truth(stBrute, target, 45)
	brute, err := BruteForce(stBrute, target, Options{Iterations: iters, FreshRandomPerIteration: true})
	if err != nil {
		t.Fatal(err)
	}

	stReach := newStation(t, 7)
	reach, err := Reach(stReach, target, ReachConditions{DeltaInterval: 0.25}, Options{Iterations: iters, FreshRandomPerIteration: true})
	if err != nil {
		t.Fatal(err)
	}

	covB := Coverage(brute.Failures, truth)
	covR := Coverage(reach.Failures, truth)
	if covR <= covB {
		t.Errorf("reach coverage %v not above brute-force %v", covR, covB)
	}
	if covR < 0.95 {
		t.Errorf("reach coverage %v below 95%% at +250ms", covR)
	}
	// Reach must produce false positives (that is its cost).
	fpr := FalsePositiveRate(reach.Failures, truth)
	if fpr <= 0 {
		t.Error("reach profiling produced no false positives; model suspect")
	}
	if fpr > 0.8 {
		t.Errorf("reach FPR %v absurdly high at +250ms", fpr)
	}
	if reach.ProfilingInterval != target+0.25 {
		t.Errorf("reach profiled at %v", reach.ProfilingInterval)
	}
}

func TestReachTemperatureRestored(t *testing.T) {
	st := newStation(t, 8)
	before := st.Ambient()
	_, err := Reach(st, 1.024, ReachConditions{DeltaTempC: 5}, Options{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Ambient() != before {
		t.Errorf("ambient not restored: %v -> %v", before, st.Ambient())
	}
}

func TestReachHigherTemperatureIncreasesCoverage(t *testing.T) {
	const target = 1.024
	const iters = 6

	base := newStation(t, 9)
	truth := Truth(base, target, 45)
	brute, err := BruteForce(base, target, Options{Iterations: iters})
	if err != nil {
		t.Fatal(err)
	}

	hot := newStation(t, 9)
	reach, err := Reach(hot, target, ReachConditions{DeltaTempC: 5}, Options{Iterations: iters})
	if err != nil {
		t.Fatal(err)
	}
	if Coverage(reach.Failures, truth) <= Coverage(brute.Failures, truth) {
		t.Errorf("temperature reach did not raise coverage: %v vs %v",
			Coverage(reach.Failures, truth), Coverage(brute.Failures, truth))
	}
}

func TestFreshRandomPerIterationFindsMore(t *testing.T) {
	// With only random patterns, refreshing the seed each iteration must
	// discover at least as many unique failures as a frozen seed.
	run := func(fresh bool) int {
		st := newStation(t, 10)
		res, err := BruteForce(st, 2.048, Options{
			Patterns:                []patterns.Pattern{patterns.Random(1), patterns.Invert(patterns.Random(1))},
			Iterations:              10,
			FreshRandomPerIteration: fresh,
			Seed:                    99,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Failures.Len()
	}
	frozen := run(false)
	fresh := run(true)
	if fresh <= frozen {
		t.Errorf("fresh random patterns found %d, frozen found %d; expected fresh > frozen",
			fresh, frozen)
	}
}

func TestRecordsTrackNewVsRepeat(t *testing.T) {
	st := newStation(t, 11)
	res, err := BruteForce(st, 2.048, Options{Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	totalNew := 0
	for _, rec := range res.Records {
		if rec.NewFailures > rec.Failures {
			t.Fatalf("record %+v has more new than total", rec)
		}
		totalNew += rec.NewFailures
	}
	if totalNew != res.Failures.Len() {
		t.Errorf("sum of new failures %d != cumulative set %d", totalNew, res.Failures.Len())
	}
	// Clock must be monotonically increasing across records.
	prev := 0.0
	for _, rec := range res.Records {
		if rec.ClockSeconds <= prev {
			t.Fatal("record clocks not increasing")
		}
		prev = rec.ClockSeconds
	}
}

func TestTruthStableAcrossSameSeed(t *testing.T) {
	a := Truth(newStation(t, 12), 1.024, 45)
	b := Truth(newStation(t, 12), 1.024, 45)
	if a.Len() != b.Len() {
		t.Errorf("truth not reproducible: %d vs %d", a.Len(), b.Len())
	}
	if a.Len() == 0 {
		t.Fatal("empty truth at 1024ms")
	}
}
