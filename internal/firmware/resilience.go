package firmware

import (
	"fmt"

	"reaper/internal/memctrl"
	"reaper/internal/telemetry"
)

// The closed-loop resilience controller (Config.Resilience) consumes
// per-window ECC scrub telemetry (ReportScrub) and escalates through a
// policy ladder when the extended-interval operating point shows signs of
// failing:
//
//  1. Early reprofile — an unclean window schedules an out-of-cadence
//     profiling round, with exponential backoff between successive early
//     rounds so a persistent fault cannot trap the system in back-to-back
//     full-device profiling passes.
//  2. Widen reach — repeated escapes in a row mean the current reach
//     conditions under-cover the failure distribution tail (Section 2.3
//     escape mechanisms); the controller widens the profiling delta
//     interval and adds iterations, up to maxWidenSteps.
//  3. Graceful degradation — an uncorrectable error means the ECC budget
//     (Equation 7's N) is breached, so the controller steps the refresh
//     interval down the degrade ladder toward the JEDEC default, where
//     retention failures are not expected at all. The ladder is successive
//     halvings of the target interval down to the default tREFI.
//  4. Recovery — after enough consecutive clean windows the controller
//     climbs back one ladder rung toward the extended interval. Each
//     UE-triggered degrade doubles the clean-window requirement
//     (hysteresis), so an oscillating marginal chip settles at a safe
//     rung instead of bouncing.
const (
	// correctableBudget is the number of corrected errors a scrub window
	// may report and still count as clean.
	correctableBudget = 2
	// backoffBaseSeconds is the delay before the first early reprofile
	// after an unclean window; it doubles per consecutive unclean window up
	// to backoffMaxSeconds.
	backoffBaseSeconds = 0.5 * 3600
	backoffMaxSeconds  = 8 * 3600
	// widenAfterEscapes is the consecutive-unclean-window streak that
	// triggers a reach widening step.
	widenAfterEscapes = 2
	// Each widening step adds widenDeltaInterval seconds to the profiling
	// delta interval and widenExtraIterations to the iteration count, for
	// at most maxWidenSteps steps.
	widenDeltaInterval   = 0.128
	widenExtraIterations = 4
	maxWidenSteps        = 2
	// recoverAfterCleanWindows is the base number of consecutive clean
	// scrub windows required to climb one rung back up.
	recoverAfterCleanWindows = 6
	// recoverNeedCap bounds the hysteresis doubling of the clean-window
	// requirement so recovery never becomes unreachable.
	recoverNeedCap = 64
)

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

// initResilience builds the degrade ladder and arms the controller. Called
// from New.
func (m *Manager) initResilience() error {
	if !m.cfg.Resilience {
		return nil
	}
	def := memctrl.DefaultTREFI
	if m.cfg.TargetInterval <= def {
		return fmt.Errorf("firmware: target interval %v s leaves no degrade ladder above the default tREFI %v s",
			m.cfg.TargetInterval, def)
	}
	for iv := m.cfg.TargetInterval / 2; iv > def*1.5; iv /= 2 {
		m.ladder = append(m.ladder, iv)
	}
	m.ladder = append(m.ladder, def)
	m.backoffSeconds = backoffBaseSeconds
	m.recoverNeed = recoverAfterCleanWindows
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
// corrected/uncorrectable counts. A no-op unless Config.Resilience is set.
func (m *Manager) ReportScrub(t Telemetry) {
	if !m.cfg.Resilience {
		return
	}
	clean := t.Uncorrectable == 0 && t.Corrected <= correctableBudget
	m.tele.Counter("firmware_scrub_windows_total", telemetry.L("clean", fmt.Sprintf("%t", clean))).Inc()
	m.tele.Counter("firmware_scrub_corrected_total").Add(int64(t.Corrected))
	m.tele.Counter("firmware_scrub_uncorrectable_total").Add(int64(t.Uncorrectable))
	if clean {
		m.escapeStreak = 0
		m.cleanWindows++
		m.backoffSeconds = backoffBaseSeconds
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
	if m.escapeStreak >= widenAfterEscapes && m.widenSteps < maxWidenSteps {
		// Rung 2: repeated escapes — profile wider and harder.
		m.widenSteps++
		m.reach.DeltaInterval += widenDeltaInterval
		m.prof.Iterations += widenExtraIterations
		m.event(EventWiden, fmt.Sprintf("step %d: delta interval %.0f ms, %d iterations",
			m.widenSteps, m.reach.DeltaInterval*1000, m.prof.Iterations))
	}
	if !m.earlyPending {
		// Rung 1: schedule an early reprofile with exponential backoff.
		m.earlyPending = true
		m.earlyAt = m.st.Clock() + m.backoffSeconds
		m.event(EventEarlyReprofile, fmt.Sprintf("scheduled in %.2f h (%d corrected, %d UE)",
			m.backoffSeconds/3600, t.Corrected, t.Uncorrectable))
		m.backoffSeconds = min(m.backoffSeconds*2, backoffMaxSeconds)
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
