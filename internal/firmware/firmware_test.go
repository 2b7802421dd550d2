package firmware

import (
	"context"
	"fmt"
	"testing"

	"reaper/internal/core"
	"reaper/internal/dram"
	"reaper/internal/ecc"
	"reaper/internal/longevity"
	"reaper/internal/memctrl"
	"reaper/internal/mitigate"
)

// ProfilingSeconds returns the simulated time consumed by profiling so far.
func (m *Manager) ProfilingSeconds() float64 { return m.profilingSeconds }

func newStation(t testing.TB, seed uint64) *memctrl.Station {
	t.Helper()
	dev, err := dram.NewDevice(dram.Config{
		Geometry:  dram.Geometry{Banks: 8, RowsPerBank: 128, WordsPerRow: 256},
		Vendor:    dram.VendorB(),
		Seed:      seed,
		WeakScale: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := memctrl.NewStation(nil, dev)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// moduleLongevity is the Equation 7 model for a notional production module;
// the cadence it implies is capacity-invariant at fixed coverage.
func moduleLongevity() *longevity.Model {
	return &longevity.Model{
		Code:       ecc.SECDED(),
		TargetUBER: ecc.UBERConsumer,
		Bytes:      2 << 30,
		Vendor:     dram.VendorB(),
		TempC:      45,
	}
}

func TestNewValidation(t *testing.T) {
	st := newStation(t, 1)
	if _, err := New(nil, Config{TargetInterval: 1, CadenceHours: 1}); err == nil {
		t.Error("nil station not rejected")
	}
	if _, err := New(st, Config{TargetInterval: 0, CadenceHours: 1}); err == nil {
		t.Error("zero target not rejected")
	}
	if _, err := New(st, Config{TargetInterval: 1}); err == nil {
		t.Error("missing cadence and longevity not rejected")
	}
	if _, err := New(st, Config{TargetInterval: 1,
		Reach: core.ReachConditions{DeltaInterval: -1}, CadenceHours: 1}); err == nil {
		t.Error("negative reach not rejected")
	}
}

func TestCadenceFromLongevity(t *testing.T) {
	st := newStation(t, 2)
	m, err := New(st, Config{
		TargetInterval: 1.024,
		Longevity:      moduleLongevity(),
		Profiling:      core.Options{Iterations: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2GB/SECDED/1024ms/99% coverage gives ~91h longevity; halved, ~45h.
	if m.CadenceHours() < 30 || m.CadenceHours() > 60 {
		t.Errorf("derived cadence = %vh, want ~45h", m.CadenceHours())
	}
	// At 2048 ms the 99% coverage credited to each round already misses
	// more failures than the ECC budget allows; that is surfaced at
	// construction.
	if _, err := New(newStation(t, 2), Config{
		TargetInterval: 2.048,
		Longevity:      moduleLongevity(),
	}); err == nil {
		t.Error("infeasible coverage not rejected")
	}
}

func TestTickRunsOnCadence(t *testing.T) {
	st := newStation(t, 3)
	m, err := New(st, Config{
		TargetInterval: 1.024,
		Reach:          core.ReachConditions{DeltaInterval: 0.25},
		Profiling:      core.Options{Iterations: 2, FreshRandomPerIteration: true},
		CadenceHours:   6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Due() {
		t.Fatal("fresh manager should be due")
	}
	ran, err := m.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !ran || m.Rounds() != 1 {
		t.Fatalf("first tick: ran=%v rounds=%d", ran, m.Rounds())
	}
	if m.Profile().Len() == 0 {
		t.Error("round produced no profile")
	}
	if m.ProfilingSeconds() <= 0 {
		t.Error("no profiling time recorded")
	}
	// The station must be back at the target interval.
	if st.Device().AutoRefresh() != 1.024 {
		t.Errorf("refresh interval after round = %v, want 1.024", st.Device().AutoRefresh())
	}
	// Immediately after, nothing is due.
	if m.Due() {
		t.Error("manager due right after a round")
	}
	if ran, _ := m.Tick(context.Background()); ran {
		t.Error("tick ran a round before the cadence elapsed")
	}
	// After the cadence passes, a round is due again.
	st.Wait(6*3600 + 1)
	if !m.Due() {
		t.Error("manager not due after cadence")
	}
	ran, err = m.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !ran || m.Rounds() != 2 {
		t.Error("second round did not run")
	}
}

func TestProfileAccumulatesAcrossRounds(t *testing.T) {
	st := newStation(t, 4)
	m, err := New(st, Config{
		TargetInterval: 1.024,
		Reach:          core.ReachConditions{DeltaInterval: 0.25},
		Profiling:      core.Options{Iterations: 2, FreshRandomPerIteration: true},
		CadenceHours:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Tick(context.Background()); err != nil {
		t.Fatal(err)
	}
	first := m.Profile().Len()
	st.Wait(2*3600 + 1)
	if _, err := m.Tick(context.Background()); err != nil {
		t.Fatal(err)
	}
	if m.Profile().Len() < first {
		t.Error("profile shrank across rounds; union semantics violated")
	}
}

func TestHooksRunAndErrorsPropagate(t *testing.T) {
	st := newStation(t, 5)
	installs, afters := 0, 0
	m, err := New(st, Config{
		TargetInterval: 1.024,
		Profiling:      core.Options{Iterations: 1},
		CadenceHours:   1,
		Install: func(p *core.FailureSet) error {
			installs++
			if p.Len() == 0 {
				t.Error("install hook got empty profile")
			}
			return nil
		},
		AfterRound: func() error { afters++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Tick(context.Background()); err != nil {
		t.Fatal(err)
	}
	if installs != 1 || afters != 1 {
		t.Errorf("hooks ran %d/%d times, want 1/1", installs, afters)
	}

	bad, err := New(newStation(t, 5), Config{
		TargetInterval: 1.024,
		Profiling:      core.Options{Iterations: 1},
		CadenceHours:   1,
		Install:        func(*core.FailureSet) error { return fmt.Errorf("boom") },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Tick(context.Background()); err == nil {
		t.Error("install error not propagated")
	}
}

func TestRunForTicksPeriodically(t *testing.T) {
	st := newStation(t, 6)
	m, err := New(st, Config{
		TargetInterval: 1.024,
		Reach:          core.ReachConditions{DeltaInterval: 0.25},
		Profiling:      core.Options{Iterations: 1, FreshRandomPerIteration: true},
		CadenceHours:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunFor(context.Background(), 13, 900); err != nil {
		t.Fatal(err)
	}
	// 13 hours at a 4-hour cadence: the initial round plus ~3 more.
	if m.Rounds() < 3 || m.Rounds() > 5 {
		t.Errorf("rounds = %d, want ~4", m.Rounds())
	}
	if m.OverheadFraction() <= 0 || m.OverheadFraction() > 0.2 {
		t.Errorf("overhead fraction = %v out of plausible range", m.OverheadFraction())
	}
	if err := m.RunFor(context.Background(), 1, 0); err == nil {
		t.Error("zero step not rejected")
	}
}

func TestReachManagerBeatsBruteForceEndToEnd(t *testing.T) {
	// The repository's flagship firmware comparison: to reach at least
	// brute-force coverage, the reach manager spends less profiling time.
	const target = 1.024
	runMgr := func(reach core.ReachConditions, iters int) (cov, overhead float64) {
		st := newStation(t, 7)
		truth := core.Truth(st, target, 45)
		m, err := New(st, Config{
			TargetInterval: target,
			Reach:          reach,
			Profiling:      core.Options{Iterations: iters, FreshRandomPerIteration: true},
			CadenceHours:   8,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.RunFor(context.Background(), 24, 1800); err != nil {
			t.Fatal(err)
		}
		return core.Coverage(m.Profile(), truth), m.OverheadFraction()
	}
	bruteCov, bruteOver := runMgr(core.ReachConditions{}, 32)
	reachCov, reachOver := runMgr(core.ReachConditions{DeltaInterval: 0.25}, 8)
	if reachCov < bruteCov {
		t.Errorf("reach manager coverage %v below brute %v", reachCov, bruteCov)
	}
	if reachOver >= bruteOver {
		t.Errorf("reach manager overhead %v not below brute %v", reachOver, bruteOver)
	}
	t.Logf("brute: cov=%.4f overhead=%.4f; reach: cov=%.4f overhead=%.4f (speedup %.2fx)",
		bruteCov, bruteOver, reachCov, reachOver, bruteOver/reachOver)
}

func TestFirmwareWithArchShieldMultiDay(t *testing.T) {
	// End-to-end: the manager keeps an ArchShield-protected system correct
	// across three simulated days at a 1024 ms refresh interval, rewriting
	// resident data after every round (paper footnote 4's save/restore).
	const target = 1.024
	st := newStation(t, 8)
	shield, err := mitigate.NewArchShield(st, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	truth := core.Truth(st, target, 45)
	geom := st.Device().Geometry()
	var victims []mitigate.WordAddr
	seen := map[mitigate.WordAddr]bool{}
	for _, bit := range truth.Sorted() {
		a := geom.AddrOf(bit)
		wa := mitigate.WordAddr{Bank: a.Bank, Row: a.Row, Word: a.Word}
		if !seen[wa] && !shield.InReservedSegment(wa) {
			seen[wa] = true
			victims = append(victims, wa)
		}
		if len(victims) >= 60 {
			break
		}
	}
	payload := func(i int) uint64 { return 0x0f0f0f0f0f0f0f0f ^ uint64(i)*0x9e3779b97f4a7c15 }
	writeData := func() error {
		for i, wa := range victims {
			if err := shield.Write(wa, payload(i)); err != nil {
				return err
			}
		}
		return nil
	}

	m, err := New(st, Config{
		TargetInterval: target,
		Reach:          core.ReachConditions{DeltaInterval: 0.75},
		Profiling:      core.Options{Iterations: 24, FreshRandomPerIteration: true},
		CadenceHours:   24,
		Install:        shield.Install,
		AfterRound:     writeData,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunFor(context.Background(), 72, 3600); err != nil {
		t.Fatal(err)
	}
	if m.Rounds() < 3 {
		t.Fatalf("expected >= 3 rounds over 72h at 24h cadence, got %d", m.Rounds())
	}
	corrupted := 0
	for i, wa := range victims {
		got, err := shield.Read(wa)
		if err != nil {
			t.Fatal(err)
		}
		if got != payload(i) {
			corrupted++
		}
	}
	if corrupted != 0 {
		t.Errorf("%d/%d protected words corrupted across 3 days at %vms",
			corrupted, len(victims), target*1000)
	}
}
