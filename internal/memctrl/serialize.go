package memctrl

import (
	"reaper/internal/checkpoint"
)

// Checkpoint surface of the station: the simulated clock, the refresh flag,
// and the time accounting. The device's own state (including its refresh
// interval) lives in the dram checkpoint blob and is not serialized here.

// EncodeState serializes the station's mutable state.
func (s *Station) EncodeState(e *checkpoint.Encoder) {
	e.Section("memctrl.station")
	e.F64(s.clock.now)
	e.Bool(s.refresh)
	e.F64(s.stats.WriteSeconds)
	e.F64(s.stats.ReadSeconds)
	e.F64(s.stats.WaitSeconds)
	e.F64(s.stats.IdleSeconds)
	e.Int(s.stats.WritePasses)
	e.Int(s.stats.ReadPasses)
	e.I64(s.stats.BytesWritten)
	e.I64(s.stats.BytesRead)
}

// RestoreState loads state serialized by EncodeState into a freshly
// constructed station over the (separately restored) device.
func (s *Station) RestoreState(d *checkpoint.Decoder) error {
	d.Section("memctrl.station")
	s.clock.now = d.F64()
	s.refresh = d.Bool()
	s.stats.WriteSeconds = d.F64()
	s.stats.ReadSeconds = d.F64()
	s.stats.WaitSeconds = d.F64()
	s.stats.IdleSeconds = d.F64()
	s.stats.WritePasses = d.Int()
	s.stats.ReadPasses = d.Int()
	s.stats.BytesWritten = d.I64()
	s.stats.BytesRead = d.I64()
	return d.Err()
}
