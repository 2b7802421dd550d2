package firmware

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"reaper/internal/checkpoint"
	"reaper/internal/core"
	"reaper/internal/memctrl"
)

// resilientCfg is a controller configuration whose drive sequence walks the
// whole policy ladder: escapes, widening, UE degradation, and recovery.
func resilientCfg(preRound func() error) Config {
	return Config{
		TargetInterval: 1.024,
		Reach:          core.ReachConditions{DeltaInterval: 0.25},
		Profiling:      core.Options{Iterations: 2, FreshRandomPerIteration: true, Seed: 42},
		CadenceHours:   12,
		PreRound:       preRound,
		Resilience:     true,
	}
}

// abortSecondCall returns a PreRound hook that rejects exactly the second
// round attempt, so both twins exercise the abort backoff identically.
func abortSecondCall() func() error {
	calls := 0
	return func() error {
		calls++
		if calls == 2 {
			return fmt.Errorf("profiling window preempted")
		}
		return nil
	}
}

// driveManager pushes a manager through a deterministic mixed sequence of
// scrub windows and round opportunities covering every controller rung.
func driveManager(t *testing.T, m *Manager, st *memctrl.Station) {
	t.Helper()
	ctx := context.Background()
	step := func(tele Telemetry, waitSeconds float64) {
		t.Helper()
		if _, err := m.Tick(ctx); err != nil {
			t.Fatal(err)
		}
		m.ReportScrub(tele)
		st.Wait(waitSeconds)
	}
	step(Telemetry{WindowSeconds: 1800, Corrected: 0}, 1800)                   // clean
	step(Telemetry{WindowSeconds: 1800, Corrected: 5}, 1800)                   // escape 1
	step(Telemetry{WindowSeconds: 1800, Corrected: 7}, 1800)                   // escape 2 -> widen
	step(Telemetry{WindowSeconds: 1800, Corrected: 2, Uncorrectable: 1}, 1800) // UE -> degrade
	for i := 0; i < 2*recoverAfterCleanWindows; i++ {
		step(Telemetry{WindowSeconds: 1800, Corrected: 0}, 2400) // the last recovers
	}
	step(Telemetry{WindowSeconds: 1800, Corrected: 0}, 3600)
}

// compareManagers asserts two managers are observation-identical.
func compareManagers(t *testing.T, label string, a, b *Manager) {
	t.Helper()
	if a.Rounds() != b.Rounds() || a.Aborts() != b.Aborts() {
		t.Errorf("%s: rounds/aborts %d/%d vs %d/%d", label, a.Rounds(), a.Aborts(), b.Rounds(), b.Aborts())
	}
	if a.DegradeLevel() != b.DegradeLevel() || a.CurrentInterval() != b.CurrentInterval() {
		t.Errorf("%s: ladder position %d@%v vs %d@%v", label,
			a.DegradeLevel(), a.CurrentInterval(), b.DegradeLevel(), b.CurrentInterval())
	}
	if a.WidenSteps() != b.WidenSteps() || a.EarlyRounds() != b.EarlyRounds() {
		t.Errorf("%s: widen/early %d/%d vs %d/%d", label,
			a.WidenSteps(), a.EarlyRounds(), b.WidenSteps(), b.EarlyRounds())
	}
	if a.ExtendedSeconds() != b.ExtendedSeconds() {
		t.Errorf("%s: extended seconds %v vs %v", label, a.ExtendedSeconds(), b.ExtendedSeconds())
	}
	if !slices.Equal(a.Profile().Sorted(), b.Profile().Sorted()) {
		t.Errorf("%s: profiles differ: %d vs %d cells", label, a.Profile().Len(), b.Profile().Len())
	}
	if ae, be := fmt.Sprint(a.Events()), fmt.Sprint(b.Events()); ae != be {
		t.Errorf("%s: event logs differ:\n%s\nvs\n%s", label, ae, be)
	}
}

// TestManagerStateRoundTrip is the controller's never-serialized-twin
// property: drive two identical managers through the full policy ladder,
// checkpoint one and restore it into a fresh manager over the same station,
// then continue both — every subsequent Tick/ReportScrub decision, the
// event log, and the re-encoded state must match the twin that was never
// serialized.
func TestManagerStateRoundTrip(t *testing.T) {
	stA := newStation(t, 33)
	stB := newStation(t, 33)
	mA, err := New(stA, resilientCfg(abortSecondCall()))
	if err != nil {
		t.Fatal(err)
	}
	mB, err := New(stB, resilientCfg(abortSecondCall()))
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: both twins walk the ladder identically.
	driveManager(t, mA, stA)
	driveManager(t, mB, stB)
	compareManagers(t, "pre-checkpoint", mA, mB)
	if mA.DegradeLevel() == 0 && mA.WidenSteps() == 0 {
		t.Fatal("degenerate drive: controller never left the initial state")
	}

	// Checkpoint mA and restore into a fresh manager over the same station.
	// The fresh PreRound hook's call counter restarts, so the twin gets a
	// matching fresh hook before phase 2.
	enc := checkpoint.NewEncoder()
	if err := mA.EncodeState(enc); err != nil {
		t.Fatal(err)
	}
	restored, err := New(stA, resilientCfg(abortSecondCall()))
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreState(checkpoint.NewDecoder(enc.Data())); err != nil {
		t.Fatal(err)
	}
	mB.cfg.PreRound = abortSecondCall()
	compareManagers(t, "post-restore", restored, mB)

	// Restored state must re-encode byte-identically.
	enc2 := checkpoint.NewEncoder()
	if err := restored.EncodeState(enc2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc.Data(), enc2.Data()) {
		t.Fatal("re-encoded manager state differs")
	}

	// Phase 2: the restored manager and the never-serialized twin must make
	// identical decisions from here on.
	driveManager(t, restored, stA)
	driveManager(t, mB, stB)
	compareManagers(t, "post-restore drive", restored, mB)

	encA, encB := checkpoint.NewEncoder(), checkpoint.NewEncoder()
	if err := restored.EncodeState(encA); err != nil {
		t.Fatal(err)
	}
	if err := mB.EncodeState(encB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encA.Data(), encB.Data()) {
		t.Fatal("final states encode differently after lockstep phase 2")
	}
}

// TestManagerRestoreRejectsMismatch pins the in-band config guard.
func TestManagerRestoreRejectsMismatch(t *testing.T) {
	st := newStation(t, 34)
	m, err := New(st, resilientCfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	enc := checkpoint.NewEncoder()
	if err := m.EncodeState(enc); err != nil {
		t.Fatal(err)
	}
	other := resilientCfg(nil)
	other.TargetInterval = 2.048
	m2, err := New(newStation(t, 34), other)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.RestoreState(checkpoint.NewDecoder(enc.Data())); err == nil {
		t.Error("target-interval mismatch not rejected")
	}
}

// TestManagerRestoreTruncated checks truncation surfaces as an error.
func TestManagerRestoreTruncated(t *testing.T) {
	st := newStation(t, 35)
	m, err := New(st, resilientCfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	driveManager(t, m, st)
	enc := checkpoint.NewEncoder()
	if err := m.EncodeState(enc); err != nil {
		t.Fatal(err)
	}
	blob := enc.Data()
	for _, cut := range []int{0, 3, len(blob) / 2, len(blob) - 1} {
		fresh, err := New(newStation(t, 35), resilientCfg(nil))
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.RestoreState(checkpoint.NewDecoder(blob[:cut])); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}
