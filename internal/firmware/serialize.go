package firmware

import (
	"bytes"
	"fmt"

	"reaper/internal/checkpoint"
	"reaper/internal/core"
)

// Checkpoint surface of the manager: the accumulated profile, the round and
// abort bookkeeping, the widened effective profiling conditions, and the
// full resilience-controller position (degrade ladder rung, hysteresis
// windows, backoff clocks, event log). Everything derived purely from the
// Config — the cadence and the ladder rungs — is reconstructed by New and
// not written; a restored manager's next Tick and ReportScrub behave
// identically to a never-serialized twin's.

const maxRestoreManagerEvents = 1 << 24

// EncodeState serializes the manager's mutable state.
func (m *Manager) EncodeState(e *checkpoint.Encoder) error {
	e.Section("firmware.manager")
	e.F64(m.cfg.TargetInterval) // in-band guard

	var buf bytes.Buffer
	if _, err := m.profile.WriteTo(&buf); err != nil {
		return fmt.Errorf("firmware: encode profile: %w", err)
	}
	e.Bytes(buf.Bytes())
	e.Int(m.rounds)
	e.F64(m.lastRoundEnd)
	e.F64(m.profilingSeconds)
	e.F64(m.startClock)

	// Effective conditions (widened from cfg by the controller).
	e.F64(m.reach.DeltaInterval)
	e.F64(m.reach.DeltaTempC)
	e.Int(m.prof.Iterations)

	// Abort-retry state.
	e.Int(m.aborts)
	e.F64(m.abortBackoff)
	e.F64(m.retryAt)

	// Resilience ladder position.
	e.Int(m.degradeLevel)
	e.Int(m.cleanWindows)
	e.Int(m.escapeStreak)
	e.Int(m.widenSteps)
	e.F64(m.backoffSeconds)
	e.Bool(m.earlyPending)
	e.F64(m.earlyAt)
	e.Int(m.earlyRounds)
	e.Int(m.recoverNeed)
	e.Bool(m.sparesExhausted)
	e.Len(len(m.events))
	for _, ev := range m.events {
		e.F64(ev.ClockHours)
		e.Str(string(ev.Kind))
		e.Str(ev.Detail)
	}

	// Extended-interval accounting.
	e.F64(m.intervalSince)
	e.F64(m.extendedAccum)
	return nil
}

// RestoreState loads state serialized by EncodeState into a freshly
// constructed manager with the same Config and station. The station's
// refresh interval is not touched: the restored device already carries the
// operating interval the campaign was running at.
func (m *Manager) RestoreState(d *checkpoint.Decoder) error {
	d.Section("firmware.manager")
	if ti := d.F64(); d.Err() == nil && ti != m.cfg.TargetInterval {
		return fmt.Errorf("firmware: restore: blob target interval %v, manager %v", ti, m.cfg.TargetInterval)
	}
	blob := d.Bytes()
	if d.Err() != nil {
		return d.Err()
	}
	profile, err := core.ReadFailureSet(bytes.NewReader(blob))
	if err != nil {
		return fmt.Errorf("firmware: restore profile: %w", err)
	}
	m.profile = profile
	m.rounds = d.Int()
	m.lastRoundEnd = d.F64()
	m.profilingSeconds = d.F64()
	m.startClock = d.F64()

	m.reach.DeltaInterval = d.F64()
	m.reach.DeltaTempC = d.F64()
	m.prof.Iterations = d.Int()

	m.aborts = d.Int()
	m.abortBackoff = d.F64()
	m.retryAt = d.F64()

	m.degradeLevel = d.Int()
	m.cleanWindows = d.Int()
	m.escapeStreak = d.Int()
	m.widenSteps = d.Int()
	m.backoffSeconds = d.F64()
	m.earlyPending = d.Bool()
	m.earlyAt = d.F64()
	m.earlyRounds = d.Int()
	m.recoverNeed = d.Int()
	m.sparesExhausted = d.Bool()
	n := d.Len(maxRestoreManagerEvents)
	if d.Err() != nil {
		return d.Err()
	}
	m.events = make([]Event, 0, n)
	for i := 0; i < n; i++ {
		m.events = append(m.events, Event{
			ClockHours: d.F64(),
			Kind:       EventKind(d.Str()),
			Detail:     d.Str(),
		})
	}

	m.intervalSince = d.F64()
	m.extendedAccum = d.F64()
	if err := d.Err(); err != nil {
		return err
	}
	if m.degradeLevel < 0 || m.degradeLevel > len(m.ladder) {
		return fmt.Errorf("firmware: restore: degrade level %d outside ladder of %d rungs",
			m.degradeLevel, len(m.ladder))
	}
	m.updateGauges()
	return nil
}
