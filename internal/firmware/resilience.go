package firmware

import (
	"fmt"
	"math"

	"reaper/internal/telemetry"
)

// ResilienceConfig tunes the closed-loop resilience controller. The
// controller consumes per-window ECC scrub telemetry (ReportScrub) and
// escalates through a policy ladder when the extended-interval operating
// point shows signs of failing:
//
//  1. Early reprofile — an unclean window schedules an out-of-cadence
//     profiling round, with exponential backoff between successive early
//     rounds so a persistent fault cannot trap the system in back-to-back
//     full-device profiling passes.
//  2. Widen reach — repeated escapes in a row mean the current reach
//     conditions under-cover the failure distribution tail (Section 2.3
//     escape mechanisms); the controller widens the profiling delta
//     interval and adds iterations, up to MaxWidenSteps.
//  3. Graceful degradation — an uncorrectable error means the ECC budget
//     (Equation 7's N) is breached, so the controller steps the refresh
//     interval down the degrade ladder toward the JEDEC default, where
//     retention failures are not expected at all.
//  4. Recovery — after enough consecutive clean windows the controller
//     climbs back one ladder rung toward the extended interval. Each
//     UE-triggered degrade doubles the clean-window requirement
//     (hysteresis), so an oscillating marginal chip settles at a safe
//     rung instead of bouncing.
type ResilienceConfig struct {
	// Enabled turns the controller on. When false ReportScrub is a no-op
	// and the manager behaves exactly like the open-loop original.
	Enabled bool
	// CorrectableBudget is the number of corrected errors a scrub window
	// may report and still count as clean. Zero derives it from the
	// longevity model (a fraction of Equation 7's tolerable failures N)
	// or falls back to 2; set -1 for zero tolerance.
	CorrectableBudget int
	// BackoffBaseHours is the delay before the first early reprofile
	// after an unclean window; doubles per consecutive unclean window up
	// to BackoffMaxHours. Defaults 0.5 and 8.
	BackoffBaseHours float64
	BackoffMaxHours  float64
	// WidenAfterEscapes is the consecutive-unclean-window streak that
	// triggers a reach widening step. Defaults to 2.
	WidenAfterEscapes int
	// WidenDeltaInterval is added to the profiling delta interval per
	// widening step (seconds). Defaults to 0.128.
	WidenDeltaInterval float64
	// WidenExtraIterations is added to the profiling iteration count per
	// widening step. Defaults to 4.
	WidenExtraIterations int
	// MaxWidenSteps caps the widening steps. Defaults to 2.
	MaxWidenSteps int
	// DegradeLadder lists refresh intervals (seconds) to fall back to,
	// most extended first. Empty derives successive halvings of the
	// target down to the station's default tREFI.
	DegradeLadder []float64
	// RecoverAfterCleanWindows is the base number of consecutive clean
	// scrub windows required to climb one rung back up. Defaults to 6.
	RecoverAfterCleanWindows int
}

// recoverNeedCap bounds the hysteresis doubling of the clean-window
// requirement so recovery never becomes unreachable.
const recoverNeedCap = 64

// Telemetry is one ECC scrub window's error summary, as a scrubber or
// in-band ECC reports it to the resilience controller.
type Telemetry struct {
	// WindowSeconds is the wall (simulated) length of the window.
	WindowSeconds float64
	// Corrected counts single-bit (correctable) errors the window found.
	Corrected int
	// Uncorrectable counts multi-bit (uncorrectable) errors.
	Uncorrectable int
}

// EventKind classifies resilience controller actions.
type EventKind string

// The controller's action vocabulary: schedule tightening, reach widening,
// interval fallback and recovery, aborted profiling rounds, and spare-row
// exhaustion.
const (
	EventEarlyReprofile  EventKind = "early-reprofile"
	EventWiden           EventKind = "widen-reach"
	EventDegrade         EventKind = "degrade-interval"
	EventRecover         EventKind = "recover-interval"
	EventRoundAbort      EventKind = "round-abort"
	EventSparesExhausted EventKind = "spares-exhausted"
)

// Event is one logged controller action, stamped with the station clock.
type Event struct {
	ClockHours float64   `json:"clock_hours"`
	Kind       EventKind `json:"kind"`
	Detail     string    `json:"detail"`
}

// initResilience validates and defaults the resilience configuration and
// builds the degrade ladder. Called from New.
func (m *Manager) initResilience() error {
	r := m.cfg.Resilience
	if !r.Enabled {
		m.res = r
		return nil
	}
	if r.CorrectableBudget == 0 {
		r.CorrectableBudget = 2
		if m.cfg.Longevity != nil {
			if n := int(m.cfg.Longevity.TolerableFailures() / 8); n > r.CorrectableBudget {
				r.CorrectableBudget = n
			}
		}
	}
	if r.CorrectableBudget < 0 {
		r.CorrectableBudget = 0
	}
	if r.BackoffBaseHours == 0 {
		r.BackoffBaseHours = 0.5
	}
	if r.BackoffMaxHours == 0 {
		r.BackoffMaxHours = 8
	}
	if r.BackoffBaseHours < 0 || r.BackoffMaxHours < r.BackoffBaseHours {
		return fmt.Errorf("firmware: invalid resilience backoff bounds [%v, %v]",
			r.BackoffBaseHours, r.BackoffMaxHours)
	}
	if r.WidenAfterEscapes == 0 {
		r.WidenAfterEscapes = 2
	}
	if r.WidenDeltaInterval == 0 {
		r.WidenDeltaInterval = 0.128
	}
	if r.WidenExtraIterations == 0 {
		r.WidenExtraIterations = 4
	}
	if r.MaxWidenSteps == 0 {
		r.MaxWidenSteps = 2
	}
	if r.RecoverAfterCleanWindows == 0 {
		r.RecoverAfterCleanWindows = 6
	}
	if r.RecoverAfterCleanWindows < 1 || r.WidenAfterEscapes < 1 {
		return fmt.Errorf("firmware: resilience thresholds must be positive")
	}
	if len(r.DegradeLadder) == 0 {
		def := m.st.Timing().DefaultTREFI
		for iv := m.cfg.TargetInterval / 2; iv > def*1.5; iv /= 2 {
			r.DegradeLadder = append(r.DegradeLadder, iv)
		}
		r.DegradeLadder = append(r.DegradeLadder, def)
	}
	prev := math.Inf(1)
	for _, iv := range r.DegradeLadder {
		if iv <= 0 || iv >= prev || iv >= m.cfg.TargetInterval {
			return fmt.Errorf("firmware: degrade ladder must strictly decrease below the target interval")
		}
		prev = iv
	}
	m.res = r
	m.ladder = r.DegradeLadder
	m.backoffSeconds = r.BackoffBaseHours * 3600
	m.recoverNeed = r.RecoverAfterCleanWindows
	return nil
}

// currentInterval returns the operating refresh interval at the current
// degrade level: the target at level 0, else the matching ladder rung.
func (m *Manager) currentInterval() float64 {
	if m.degradeLevel == 0 {
		return m.cfg.TargetInterval
	}
	return m.ladder[m.degradeLevel-1]
}

// setDegradeLevel moves the operating point, applies the new interval to
// the station, and keeps the extended-interval time accounting straight.
func (m *Manager) setDegradeLevel(level int) {
	now := m.st.Clock()
	if m.degradeLevel == 0 {
		m.extendedAccum += now - m.intervalSince
	}
	m.intervalSince = now
	m.degradeLevel = level
	m.st.SetRefreshInterval(m.currentInterval())
	m.updateGauges()
}

// event appends a controller event stamped with the station clock, and
// mirrors it to the telemetry registry (as firmware_events_total{kind}) and
// trace ring when the manager is instrumented.
func (m *Manager) event(kind EventKind, detail string) {
	m.events = append(m.events, Event{
		ClockHours: (m.st.Clock() - m.startClock) / 3600,
		Kind:       kind,
		Detail:     detail,
	})
	m.tele.Counter("firmware_events_total", telemetry.L("kind", string(kind))).Inc()
	m.tracer.Emit(m.st.Clock(), string(kind), detail, m.teleLabels...)
}

// ReportScrub feeds one scrub window's telemetry to the resilience
// controller. Call it once per scrub pass, after Tick, with the window's
// corrected/uncorrectable counts. A no-op unless Resilience.Enabled.
func (m *Manager) ReportScrub(t Telemetry) {
	if !m.res.Enabled {
		return
	}
	clean := t.Uncorrectable == 0 && t.Corrected <= m.res.CorrectableBudget
	m.tele.Counter("firmware_scrub_windows_total", telemetry.L("clean", fmt.Sprintf("%t", clean))).Inc()
	m.tele.Counter("firmware_scrub_corrected_total").Add(int64(t.Corrected))
	m.tele.Counter("firmware_scrub_uncorrectable_total").Add(int64(t.Uncorrectable))
	if clean {
		m.escapeStreak = 0
		m.cleanWindows++
		m.backoffSeconds = m.res.BackoffBaseHours * 3600
		if m.degradeLevel > 0 && m.cleanWindows >= m.recoverNeed {
			m.cleanWindows = 0
			m.setDegradeLevel(m.degradeLevel - 1)
			m.event(EventRecover, fmt.Sprintf("after %d clean windows, interval %.0f ms (level %d)",
				m.recoverNeed, m.currentInterval()*1000, m.degradeLevel))
		}
		return
	}

	m.cleanWindows = 0
	m.escapeStreak++
	if t.Uncorrectable > 0 && m.degradeLevel < len(m.ladder) {
		// Rung 3: the ECC budget is breached — degrade immediately, and
		// double the clean-window requirement for the climb back.
		m.setDegradeLevel(m.degradeLevel + 1)
		m.recoverNeed = min(m.recoverNeed*2, recoverNeedCap)
		m.event(EventDegrade, fmt.Sprintf("%d UE in window, interval %.0f ms (level %d)",
			t.Uncorrectable, m.currentInterval()*1000, m.degradeLevel))
	}
	if m.escapeStreak >= m.res.WidenAfterEscapes && m.widenSteps < m.res.MaxWidenSteps {
		// Rung 2: repeated escapes — profile wider and harder.
		m.widenSteps++
		m.reach.DeltaInterval += m.res.WidenDeltaInterval
		m.prof.Iterations += m.res.WidenExtraIterations
		m.event(EventWiden, fmt.Sprintf("step %d: delta interval %.0f ms, %d iterations",
			m.widenSteps, m.reach.DeltaInterval*1000, m.prof.Iterations))
	}
	if !m.earlyPending {
		// Rung 1: schedule an early reprofile with exponential backoff.
		m.earlyPending = true
		m.earlyAt = m.st.Clock() + m.backoffSeconds
		m.event(EventEarlyReprofile, fmt.Sprintf("scheduled in %.2f h (%d corrected, %d UE)",
			m.backoffSeconds/3600, t.Corrected, t.Uncorrectable))
		m.backoffSeconds = min(m.backoffSeconds*2, m.res.BackoffMaxHours*3600)
	}
}

// Events returns a copy of the controller's event log.
func (m *Manager) Events() []Event {
	out := make([]Event, len(m.events))
	copy(out, m.events)
	return out
}

// DegradeLevel returns the current rung on the degrade ladder (0 = the
// extended target interval).
func (m *Manager) DegradeLevel() int { return m.degradeLevel }

// CurrentInterval returns the refresh interval the system operates at
// between profiling rounds.
func (m *Manager) CurrentInterval() float64 { return m.currentInterval() }

// WidenSteps returns how many reach-widening steps the controller took.
func (m *Manager) WidenSteps() int { return m.widenSteps }

// EarlyRounds returns how many profiling rounds ran because the controller
// scheduled them early (out of cadence).
func (m *Manager) EarlyRounds() int { return m.earlyRounds }

// SparesExhausted reports whether mitigation capacity ran out.
func (m *Manager) SparesExhausted() bool { return m.sparesExhausted }

// ExtendedSeconds returns the simulated time spent operating at the
// extended target interval (degrade level 0) since the manager started.
func (m *Manager) ExtendedSeconds() float64 {
	s := m.extendedAccum
	if m.degradeLevel == 0 {
		s += m.st.Clock() - m.intervalSince
	}
	return s
}

// ExtendedFraction returns ExtendedSeconds over the total elapsed time —
// the soak report's "time at extended interval" metric.
func (m *Manager) ExtendedFraction() float64 {
	elapsed := m.st.Clock() - m.startClock
	if elapsed <= 0 {
		return 1
	}
	return m.ExtendedSeconds() / elapsed
}
