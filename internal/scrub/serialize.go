package scrub

import (
	"bytes"
	"fmt"

	"reaper/internal/checkpoint"
	"reaper/internal/core"
	"reaper/internal/mitigate"
)

// Checkpoint surfaces of the ECC memory and the scrubber. The station and
// address mapper are construction wiring and are re-attached by the caller;
// what round-trips here is the controller-side check-bit store, the
// accumulated AVATAR profile, and the pass counters.

const maxRestoreWords = 1 << 28

func encodeAddr(e *checkpoint.Encoder, a mitigate.WordAddr) {
	e.Int(a.Bank)
	e.Int(a.Row)
	e.Int(a.Word)
}

func decodeAddr(d *checkpoint.Decoder) mitigate.WordAddr {
	return mitigate.WordAddr{Bank: d.Int(), Row: d.Int(), Word: d.Int()}
}

// EncodeState serializes the ECC check-bit store.
func (m *ECCMemory) EncodeState(e *checkpoint.Encoder) {
	e.Section("scrub.eccmem")
	written := m.Written() // deterministic order
	e.Len(len(written))
	for _, a := range written {
		encodeAddr(e, a)
		e.Byte(m.checks[a])
	}
}

// RestoreState loads a check-bit store serialized by EncodeState.
func (m *ECCMemory) RestoreState(d *checkpoint.Decoder) error {
	d.Section("scrub.eccmem")
	n := d.Len(maxRestoreWords)
	if d.Err() != nil {
		return d.Err()
	}
	m.checks = make(map[mitigate.WordAddr]uint8, n)
	for i := 0; i < n; i++ {
		a := decodeAddr(d)
		m.checks[a] = d.Byte()
	}
	return d.Err()
}

// EncodeState serializes the scrubber's profile and counters.
func (s *Scrubber) EncodeState(e *checkpoint.Encoder) error {
	e.Section("scrub.scrubber")
	var buf bytes.Buffer
	if _, err := s.profile.WriteTo(&buf); err != nil {
		return fmt.Errorf("scrub: encode profile: %w", err)
	}
	e.Bytes(buf.Bytes())
	e.Int(s.UncorrectableTotal)
	e.Int(s.Rounds)
	return nil
}

// RestoreState loads scrubber state serialized by EncodeState. Telemetry
// wiring is untouched; re-attach it with Instrument as on construction.
func (s *Scrubber) RestoreState(d *checkpoint.Decoder) error {
	d.Section("scrub.scrubber")
	blob := d.Bytes()
	if d.Err() != nil {
		return d.Err()
	}
	profile, err := core.ReadFailureSet(bytes.NewReader(blob))
	if err != nil {
		return fmt.Errorf("scrub: restore profile: %w", err)
	}
	s.profile = profile
	s.UncorrectableTotal = d.Int()
	s.Rounds = d.Int()
	return d.Err()
}
