// Package firmware implements REAPER as the paper's Section 7.1 describes
// it: profiling logic running in the memory controller that periodically
// re-profiles DRAM online and feeds the discovered failing cells to a
// retention failure mitigation mechanism, enabling reliable operation at an
// extended refresh interval.
//
// The manager follows the paper's worst-case assumptions: each profiling
// round takes exclusive DRAM access (a full system pause, charged on the
// simulated clock), and rounds recur at a cadence derived from the profile
// longevity model (Equation 7) or fixed by configuration. Profiling
// overwrites DRAM contents; per the paper's footnote 4, saving and
// restoring resident data is the system's job — the AfterRound hook is
// where a host rewrites its data.
//
// Beyond the open-loop cadence, the manager can run closed-loop: feed it
// per-window ECC scrub telemetry through ReportScrub and it escalates
// through the resilience policy ladder (see resilience.go) — early
// reprofiling, widened reach conditions, graceful refresh degradation, and
// recovery to the extended interval after sustained clean windows. The
// ladder's thresholds, like the coverage and safety factor of the derived
// cadence, are constants: Config only switches the controller on.
package firmware

import (
	"context"
	"fmt"

	"reaper/internal/core"
	"reaper/internal/longevity"
	"reaper/internal/memctrl"
	"reaper/internal/telemetry"
)

// Config configures an online profiling manager.
type Config struct {
	// TargetInterval is the refresh interval (seconds) the system runs at.
	TargetInterval float64
	// Reach are the profiling deltas above target conditions; zero deltas
	// give an online brute-force manager.
	Reach core.ReachConditions
	// Profiling configures each round (iterations, patterns, seed).
	Profiling core.Options
	// CadenceHours fixes the reprofiling period. Zero derives it from
	// Longevity.
	CadenceHours float64
	// Longevity supplies the Equation 7 model when CadenceHours is 0.
	Longevity *longevity.Model
	// PreRound runs immediately before each profiling round starts. A
	// returned error aborts the round — modelling profiling-round aborts
	// and timeouts: the manager counts the abort, backs off, retries
	// later, and keeps running rather than failing the campaign.
	PreRound func() error
	// Install receives each fresh profile (e.g. ArchShield.Install).
	Install func(*core.FailureSet) error
	// AfterRound runs after each round completes (refresh restored,
	// profile installed) — the hook where the host rewrites resident
	// data that profiling overwrote.
	AfterRound func() error
	// Resilience turns on the closed-loop controller (see resilience.go);
	// false leaves the manager open-loop and ReportScrub a no-op.
	Resilience bool
}

// The cadence derived from Longevity credits each round with
// assumedCoverage (real firmware cannot measure true coverage) and divides
// the resulting longevity by safetyFactor to reprofile early.
const (
	assumedCoverage = 0.99
	safetyFactor    = 2
)

// abort-retry backoff bounds used when a PreRound hook rejects a round.
const (
	abortBackoffBaseSeconds = 1800
	abortBackoffMaxSeconds  = 4 * 3600
)

// Manager runs online profiling on one station.
type Manager struct {
	st  *memctrl.Station //lint:serialized-elsewhere station wiring; the stack is rebuilt by construction before RestoreState
	cfg Config

	profile          *core.FailureSet
	rounds           int
	lastRoundEnd     float64 // station clock, seconds
	profilingSeconds float64
	startClock       float64
	cadenceSeconds   float64 //lint:serialized-elsewhere pure function of Config; reconstructed by New

	// Effective profiling conditions; start at cfg.Reach/cfg.Profiling and
	// are widened by the resilience controller on repeated escapes.
	reach core.ReachConditions
	prof  core.Options

	// Round-abort state (PreRound hook).
	aborts       int
	abortBackoff float64
	retryAt      float64

	// Resilience controller state (see resilience.go).
	ladder          []float64 // degraded intervals, most extended first
	degradeLevel    int       // 0 = target interval, len(ladder) = last rung
	cleanWindows    int
	escapeStreak    int
	widenSteps      int
	backoffSeconds  float64
	earlyPending    bool
	earlyAt         float64
	earlyRounds     int
	recoverNeed     int
	sparesExhausted bool
	events          []Event

	// Extended-interval time accounting.
	intervalSince float64
	extendedAccum float64

	// Telemetry (see Instrument). All fields stay nil on an uninstrumented
	// manager; nil handles are no-ops.
	tele       *telemetry.Registry //lint:serialized-elsewhere telemetry wiring; re-attached by Instrument, nil-safe when absent
	tracer     *telemetry.Tracer   //lint:serialized-elsewhere telemetry wiring; the tracer checkpoints through its own codec
	teleLabels []telemetry.Label   //lint:serialized-elsewhere telemetry wiring; re-attached by Instrument, nil-safe when absent
	cRounds    *telemetry.Counter  //lint:serialized-elsewhere telemetry handle; counter state lives in the Registry snapshot
	gDegrade   *telemetry.Gauge    //lint:serialized-elsewhere telemetry handle; gauge state lives in the Registry snapshot
	gInterval  *telemetry.Gauge    //lint:serialized-elsewhere telemetry handle; gauge state lives in the Registry snapshot
}

// New builds a manager and computes its cadence.
func New(st *memctrl.Station, cfg Config) (*Manager, error) {
	if st == nil {
		return nil, fmt.Errorf("firmware: nil station")
	}
	if cfg.TargetInterval <= 0 {
		return nil, fmt.Errorf("firmware: non-positive target interval")
	}
	if cfg.Reach.DeltaInterval < 0 || cfg.Reach.DeltaTempC < 0 {
		return nil, fmt.Errorf("firmware: negative reach deltas")
	}
	m := &Manager{
		st:            st,
		cfg:           cfg,
		profile:       core.NewFailureSet(),
		startClock:    st.Clock(),
		reach:         cfg.Reach,
		prof:          cfg.Profiling,
		abortBackoff:  abortBackoffBaseSeconds,
		intervalSince: st.Clock(),
	}
	switch {
	case cfg.CadenceHours > 0:
		m.cadenceSeconds = cfg.CadenceHours * 3600
	case cfg.Longevity != nil:
		d, err := cfg.Longevity.Longevity(cfg.TargetInterval, assumedCoverage)
		if err != nil {
			return nil, fmt.Errorf("firmware: cannot derive cadence: %w", err)
		}
		m.cadenceSeconds = d.Seconds() / safetyFactor
	default:
		return nil, fmt.Errorf("firmware: need CadenceHours or a Longevity model")
	}
	if err := m.initResilience(); err != nil {
		return nil, err
	}
	return m, nil
}

// Instrument attaches a telemetry registry and (optionally) a per-manager
// tracer. Counters aggregate commutatively across all instrumented managers
// sharing the registry; the degrade-level and operating-interval gauges are
// last-write-wins, so callers running several managers concurrently must
// pass distinguishing labels (e.g. chip=3) — that makes each gauge series
// single-writer. The registry and tracer are also threaded into the
// profiling options, so each round's core_profiling_* metrics and trace
// events are recorded too. Call before the first Tick.
func (m *Manager) Instrument(reg *telemetry.Registry, tracer *telemetry.Tracer, labels ...telemetry.Label) {
	m.tele = reg
	m.tracer = tracer
	m.teleLabels = labels
	m.cRounds = reg.Counter("firmware_rounds_total")
	m.gDegrade = reg.Gauge("firmware_degrade_level", labels...)
	m.gInterval = reg.Gauge("firmware_interval_ms", labels...)
	m.prof.Telemetry = reg
	m.prof.Tracer = tracer
	m.updateGauges()
}

// updateGauges publishes the operating point after any transition.
func (m *Manager) updateGauges() {
	m.gDegrade.Set(float64(m.degradeLevel))
	m.gInterval.Set(m.currentInterval() * 1000)
}

// CadenceHours returns the reprofiling period in hours.
func (m *Manager) CadenceHours() float64 { return m.cadenceSeconds / 3600 }

// Profile returns the current failing-cell profile (a copy).
func (m *Manager) Profile() *core.FailureSet { return m.profile.Clone() }

// Rounds returns how many profiling rounds have completed.
func (m *Manager) Rounds() int { return m.rounds }

// Aborts returns how many profiling rounds the PreRound hook aborted.
func (m *Manager) Aborts() int { return m.aborts }

// OverheadFraction returns the fraction of elapsed simulated time spent
// profiling — the empirical counterpart of the paper's Figure 11.
func (m *Manager) OverheadFraction() float64 {
	elapsed := m.st.Clock() - m.startClock
	if elapsed <= 0 {
		return 0
	}
	return m.profilingSeconds / elapsed
}

// Due reports whether a profiling round is needed now (no profile yet, an
// early reprofile fell due, or the current profile outlived the cadence).
// A pending abort backoff suppresses rounds until its retry time.
func (m *Manager) Due() bool {
	now := m.st.Clock()
	if now < m.retryAt {
		return false
	}
	if m.rounds == 0 {
		return true
	}
	if m.earlyPending && now >= m.earlyAt {
		return true
	}
	return now-m.lastRoundEnd >= m.cadenceSeconds
}

// Tick runs one profiling round if one is due. It returns whether a round
// ran. After the round the station's refresh interval is restored to the
// current operating interval (the target, unless the resilience controller
// has degraded it) and the Install and AfterRound hooks have run.
//
// The context is checked on entry; profiling rounds themselves are atomic
// units of simulated time and are not interrupted midway.
func (m *Manager) Tick(ctx context.Context) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if !m.Due() {
		return false, nil
	}
	now := m.st.Clock()
	if m.cfg.PreRound != nil {
		if err := m.cfg.PreRound(); err != nil {
			m.aborts++
			m.retryAt = now + m.abortBackoff
			m.event(EventRoundAbort, fmt.Sprintf("retry in %.2f h: %v", m.abortBackoff/3600, err))
			m.abortBackoff = min(m.abortBackoff*2, abortBackoffMaxSeconds)
			return false, nil
		}
	}
	m.abortBackoff = abortBackoffBaseSeconds
	res, err := core.Reach(m.st, m.cfg.TargetInterval, m.reach, m.prof)
	if err != nil {
		return false, err
	}
	// Each round replaces the working profile with the union of old and
	// new discoveries: cells once seen failing stay mitigated (dropping
	// them would re-expose VRT cells currently in their long state).
	m.profile = m.profile.Union(res.Failures)
	m.profilingSeconds += res.RuntimeSeconds()
	m.rounds++
	m.lastRoundEnd = m.st.Clock()
	m.cRounds.Inc()
	if m.earlyPending {
		m.earlyPending = false
		m.earlyRounds++
		m.tele.Counter("firmware_early_rounds_total").Inc()
	}
	m.tracer.Emit(m.st.Clock(), "profiling-round",
		fmt.Sprintf("round=%d profile_cells=%d", m.rounds, m.profile.Len()), m.teleLabels...)

	// Resume operation at the current (possibly degraded) interval.
	m.st.SetRefreshInterval(m.currentInterval())
	m.updateGauges()
	if m.cfg.Install != nil && !m.sparesExhausted {
		if err := m.cfg.Install(m.profile); err != nil {
			if !m.cfg.Resilience {
				return true, fmt.Errorf("firmware: install: %w", err)
			}
			// Mitigation capacity exhausted: newly found cells can no
			// longer be remapped, so extended-interval operation is
			// unsafe. Degrade to the last rung and keep running.
			m.sparesExhausted = true
			m.setDegradeLevel(len(m.ladder))
			m.event(EventSparesExhausted, err.Error())
		}
	}
	if m.cfg.AfterRound != nil {
		if err := m.cfg.AfterRound(); err != nil {
			return true, fmt.Errorf("firmware: after-round hook: %w", err)
		}
	}
	return true, nil
}

// RunFor advances simulated time by simHours, ticking the manager every
// stepSeconds. The system runs at the current operating interval between
// rounds. Cancelling the context stops the campaign at the next step.
func (m *Manager) RunFor(ctx context.Context, simHours, stepSeconds float64) error {
	if stepSeconds <= 0 {
		return fmt.Errorf("firmware: non-positive step")
	}
	end := m.st.Clock() + simHours*3600
	for m.st.Clock() < end {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := m.Tick(ctx); err != nil {
			return err
		}
		m.st.Wait(stepSeconds)
	}
	return nil
}
