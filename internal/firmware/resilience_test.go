package firmware

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"reaper/internal/core"
	"reaper/internal/memctrl"
)

// quickCfg is a cheap manager configuration for controller unit tests.
func quickCfg() Config {
	return Config{
		TargetInterval: 1.024,
		Reach:          core.ReachConditions{DeltaInterval: 0.25},
		Profiling:      core.Options{Iterations: 1, FreshRandomPerIteration: true},
		CadenceHours:   48,
	}
}

func TestContextCancellationStopsCampaign(t *testing.T) {
	st := newStation(t, 20)
	m, err := New(st, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Tick(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Tick with cancelled context: err = %v, want context.Canceled", err)
	}
	if m.Rounds() != 0 {
		t.Error("round ran under a cancelled context")
	}
	if err := m.RunFor(ctx, 10, 900); !errors.Is(err, context.Canceled) {
		t.Errorf("RunFor with cancelled context: err = %v, want context.Canceled", err)
	}
}

func TestPreRoundAbortBacksOffAndRetries(t *testing.T) {
	st := newStation(t, 21)
	fail := true
	cfg := quickCfg()
	cfg.PreRound = func() error {
		if fail {
			return fmt.Errorf("profiling window preempted")
		}
		return nil
	}
	m, err := New(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ran, err := m.Tick(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ran || m.Aborts() != 1 || m.Rounds() != 0 {
		t.Fatalf("aborted tick: ran=%v aborts=%d rounds=%d", ran, m.Aborts(), m.Rounds())
	}
	// Within the backoff the manager is not due, even with no profile.
	if m.Due() {
		t.Error("manager due during abort backoff")
	}
	st.Wait(abortBackoffBaseSeconds / 2)
	if ran, _ := m.Tick(ctx); ran {
		t.Error("round ran inside the abort backoff")
	}
	// After the backoff it retries; a second failure doubles the backoff.
	st.Wait(abortBackoffBaseSeconds/2 + 1)
	if ran, _ := m.Tick(ctx); ran || m.Aborts() != 2 {
		t.Fatalf("retry tick: ran=%v aborts=%d, want abort #2", ran, m.Aborts())
	}
	st.Wait(abortBackoffBaseSeconds + 1)
	if ran, _ := m.Tick(ctx); ran {
		t.Error("round ran inside the doubled backoff")
	}
	st.Wait(abortBackoffBaseSeconds + 1)
	fail = false
	ran, err = m.Tick(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !ran || m.Rounds() != 1 {
		t.Fatalf("round did not run once PreRound recovered: ran=%v rounds=%d", ran, m.Rounds())
	}
	abortEvents := 0
	for _, e := range m.Events() {
		if e.Kind == EventRoundAbort {
			abortEvents++
		}
	}
	if abortEvents != 2 {
		t.Errorf("logged %d round-abort events, want 2", abortEvents)
	}
}

func TestInstallErrorMidCampaignPropagates(t *testing.T) {
	// Without resilience, an Install failure partway through a campaign
	// (spares exhausted on the Nth round) surfaces from RunFor.
	st := newStation(t, 22)
	calls := 0
	cfg := quickCfg()
	cfg.CadenceHours = 4
	cfg.Install = func(*core.FailureSet) error {
		calls++
		if calls >= 2 {
			return fmt.Errorf("spare rows exhausted")
		}
		return nil
	}
	m, err := New(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = m.RunFor(context.Background(), 12, 1800)
	if err == nil || calls != 2 {
		t.Fatalf("RunFor err = %v after %d installs, want install error on round 2", err, calls)
	}
	if m.Rounds() != 2 {
		t.Errorf("rounds = %d, want 2 (campaign stopped at the failing round)", m.Rounds())
	}
}

func TestAfterRoundErrorMidCampaignPropagates(t *testing.T) {
	st := newStation(t, 23)
	calls := 0
	cfg := quickCfg()
	cfg.CadenceHours = 4
	cfg.AfterRound = func() error {
		calls++
		if calls >= 3 {
			return fmt.Errorf("host restore failed")
		}
		return nil
	}
	m, err := New(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunFor(context.Background(), 16, 1800); err == nil {
		t.Fatal("AfterRound error mid-campaign not propagated")
	}
	if calls != 3 {
		t.Errorf("AfterRound ran %d times, want 3", calls)
	}
}

func TestInstallExhaustionDegradesWhenResilient(t *testing.T) {
	// With the controller enabled, mitigation capacity exhaustion is a
	// survivable event: the manager degrades to the last ladder rung and
	// keeps the campaign alive instead of erroring out.
	st := newStation(t, 24)
	cfg := quickCfg()
	cfg.Resilience = true
	cfg.Install = func(*core.FailureSet) error { return fmt.Errorf("spare segment full") }
	m, err := New(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ran, err := m.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !ran || !m.SparesExhausted() {
		t.Fatalf("ran=%v sparesExhausted=%v, want survivable exhaustion", ran, m.SparesExhausted())
	}
	def := memctrl.DefaultTREFI
	if m.CurrentInterval() != def {
		t.Errorf("interval after exhaustion = %v, want default tREFI %v", m.CurrentInterval(), def)
	}
	if st.Device().AutoRefresh() != def {
		t.Errorf("station refresh = %v, want %v", st.Device().AutoRefresh(), def)
	}
	found := false
	for _, e := range m.Events() {
		if e.Kind == EventSparesExhausted {
			found = true
		}
	}
	if !found {
		t.Error("no spares-exhausted event logged")
	}
}

func TestResilienceLadderEscalatesAndRecovers(t *testing.T) {
	st := newStation(t, 25)
	cfg := quickCfg()
	cfg.Resilience = true
	m, err := New(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := m.Tick(ctx); err != nil { // initial profile
		t.Fatal(err)
	}
	baseReach := m.reach.DeltaInterval
	baseIters := m.prof.Iterations

	// Window 1: correctable errors over budget -> early reprofile scheduled.
	m.ReportScrub(Telemetry{WindowSeconds: 3600, Corrected: 5})
	if !m.earlyPending {
		t.Fatal("unclean window did not schedule an early reprofile")
	}
	if m.Due() {
		t.Error("early reprofile due before its backoff elapsed")
	}
	st.Wait(0.5*3600 + 1)
	if !m.Due() {
		t.Fatal("early reprofile not due after its backoff")
	}
	if ran, _ := m.Tick(ctx); !ran || m.EarlyRounds() != 1 {
		t.Fatalf("early round: ran=%v earlyRounds=%d", ran, m.EarlyRounds())
	}

	// Window 2: second consecutive escape -> widen reach conditions.
	m.ReportScrub(Telemetry{WindowSeconds: 3600, Corrected: 5})
	if m.WidenSteps() != 1 {
		t.Fatalf("widen steps = %d after 2 escapes, want 1", m.WidenSteps())
	}
	if m.reach.DeltaInterval <= baseReach || m.prof.Iterations <= baseIters {
		t.Error("widening did not grow reach conditions")
	}

	// Window 3: an uncorrectable error -> degrade one rung immediately.
	m.ReportScrub(Telemetry{WindowSeconds: 3600, Uncorrectable: 1})
	if m.DegradeLevel() != 1 {
		t.Fatalf("degrade level = %d after UE, want 1", m.DegradeLevel())
	}
	if got := st.Device().AutoRefresh(); got != m.CurrentInterval() || got >= cfg.TargetInterval {
		t.Errorf("station refresh %v not degraded below target %v", got, cfg.TargetInterval)
	}

	// Recovery needs 2x the base clean windows after a UE (hysteresis).
	for i := 0; i < 2*recoverAfterCleanWindows-1; i++ {
		m.ReportScrub(Telemetry{WindowSeconds: 3600})
		if m.DegradeLevel() != 1 {
			t.Fatalf("recovered after only %d clean windows (hysteresis broken)", i+1)
		}
	}
	m.ReportScrub(Telemetry{WindowSeconds: 3600})
	if m.DegradeLevel() != 0 {
		t.Fatalf("degrade level = %d after %d clean windows, want recovery to 0",
			m.DegradeLevel(), 2*recoverAfterCleanWindows)
	}
	if st.Device().AutoRefresh() != cfg.TargetInterval {
		t.Error("recovery did not restore the target interval on the station")
	}

	kinds := map[EventKind]int{}
	for _, e := range m.Events() {
		kinds[e.Kind]++
	}
	for _, k := range []EventKind{EventEarlyReprofile, EventWiden, EventDegrade, EventRecover} {
		if kinds[k] == 0 {
			t.Errorf("no %s event logged", k)
		}
	}
}

func TestExtendedTimeAccounting(t *testing.T) {
	st := newStation(t, 26)
	cfg := quickCfg()
	cfg.Resilience = true
	m, err := New(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.Wait(3600) // 1h at the extended interval
	m.ReportScrub(Telemetry{WindowSeconds: 3600, Uncorrectable: 1})
	st.Wait(3600) // 1h degraded
	for i := 0; i < 2*recoverAfterCleanWindows; i++ {
		m.ReportScrub(Telemetry{WindowSeconds: 3600}) // recover (need doubled)
	}
	st.Wait(3600) // 1h extended again
	got := m.ExtendedSeconds()
	if got < 2*3600-1 || got > 2*3600+1 {
		t.Errorf("extended seconds = %v, want ~%v", got, 2*3600)
	}
	if f := m.ExtendedFraction(); f < 0.6 || f > 0.7 {
		t.Errorf("extended fraction = %v, want ~2/3", f)
	}
}

func TestResilienceConfigValidation(t *testing.T) {
	st := newStation(t, 27)
	// A target at or below the default tREFI leaves no ladder to degrade
	// down.
	bad := quickCfg()
	bad.TargetInterval = memctrl.DefaultTREFI
	bad.Resilience = true
	if _, err := New(st, bad); err == nil {
		t.Error("target at the default tREFI not rejected")
	}

	// The derived ladder halves down to the JEDEC default.
	good := quickCfg()
	good.Resilience = true
	m, err := New(st, good)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(m.ladder); n < 2 {
		t.Fatalf("derived ladder has %d rungs, want several", n)
	}
	if last := m.ladder[len(m.ladder)-1]; last != memctrl.DefaultTREFI {
		t.Errorf("ladder bottom = %v, want default tREFI %v", last, memctrl.DefaultTREFI)
	}
}
