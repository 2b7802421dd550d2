// Package memctrl provides the command-level memory-controller substrate the
// profiler runs on: a simulated clock, LPDDR4 bandwidth/latency accounting,
// refresh control, and a Station that couples a dram.Device to a
// thermal.Chamber behind the same write-pattern / disable-refresh / wait /
// read-and-compare interface the paper's FPGA infrastructure (SoftMC-style)
// exposes (Section 4, Algorithm 1).
//
// All time is simulated: a six-day characterization run advances the Clock
// by six days while costing milliseconds of wall time. The Station charges
// every operation the same latency terms the paper's runtime model
// (Equation 9) charges — T_REFI waits plus whole-device pattern write and
// read passes — so profiling runtime measurements come out of the same
// bookkeeping real hardware would impose.
package memctrl

import (
	"fmt"

	"reaper/internal/dram"
	"reaper/internal/thermal"
)

// Clock is simulated time in seconds since power-up.
type Clock struct {
	now float64
}

// Now returns the current simulated time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Advance moves simulated time forward by d seconds. Negative d panics:
// simulated time is monotonic.
func (c *Clock) Advance(d float64) {
	if d < 0 {
		//lint:ignore no-panic monotonic-clock invariant: a negative advance is a simulator bug, never input
		panic("memctrl: clock cannot move backwards")
	}
	c.now += d
}

// Timing captures the interface-level LPDDR4 parameters used to charge
// realistic latencies for whole-device data passes.
type Timing struct {
	// BandwidthBytesPerSec is the peak interface bandwidth.
	BandwidthBytesPerSec float64
	// Efficiency is the achievable fraction of peak bandwidth during a
	// streaming test pass (accounting for command overheads, bank
	// conflicts, and comparison work).
	Efficiency float64
	// DefaultTREFI is the JEDEC default refresh interval in seconds.
	DefaultTREFI float64
	// AccessSeconds is the latency charged for a single random word
	// access (activate + column access + precharge).
	AccessSeconds float64
}

// DefaultTiming returns LPDDR4-3200 timing with 4 x16 channels (Table 2 of
// the paper). The efficiency is calibrated so a full write or read pass over
// 2GB takes 0.125 s, the empirical figure the paper measures on its
// infrastructure (Section 7.3.1 footnote).
func DefaultTiming() Timing {
	const peak = 4 * 2 * 3200e6 // 4 channels x 2 bytes/transfer x 3200 MT/s
	const target = 2 * (1 << 30) / 0.125
	return Timing{
		BandwidthBytesPerSec: peak,
		Efficiency:           target / peak,
		DefaultTREFI:         0.064,
		AccessSeconds:        60e-9,
	}
}

// PassSeconds returns the time to stream-write or stream-read bytes of DRAM
// once (one data-pattern pass over a device of that capacity).
func (t Timing) PassSeconds(bytes int64) float64 {
	return float64(bytes) / (t.BandwidthBytesPerSec * t.Efficiency)
}

// Stats accounts where a Station's simulated time went, in the terms of the
// paper's Equation 9.
type Stats struct {
	WriteSeconds float64 // time spent writing data patterns (T_wr)
	ReadSeconds  float64 // time spent reading and comparing (T_rd)
	WaitSeconds  float64 // time spent waiting with refresh paused (T_REFI)
	IdleSeconds  float64 // time spent waiting with refresh enabled
	WritePasses  int
	ReadPasses   int
	BytesWritten int64
	BytesRead    int64
}

// Total returns all simulated seconds the station consumed.
func (s Stats) Total() float64 {
	return s.WriteSeconds + s.ReadSeconds + s.WaitSeconds + s.IdleSeconds
}

// Station couples a device, a clock, timing, and (optionally) a thermal
// chamber into the test interface profilers drive.
type Station struct {
	dev     *dram.Device     //lint:serialized-elsewhere the device checkpoints through its own EncodeDelta/RestoreDelta pair
	chamber *thermal.Chamber //lint:serialized-elsewhere may be nil (temperature fixed); thermal state rides on the device's tempC
	clock   Clock
	timing  Timing //lint:serialized-elsewhere pure function of the construction parameters
	refresh bool
	stats   Stats
	trace   *Trace //lint:serialized-elsewhere observability ring buffer; not simulated state, empty after resume by design
}

// NewStation builds a station for the device. chamber may be nil, in which
// case the device keeps whatever temperature it was configured with and
// SetAmbient adjusts it instantly (an idealized isothermal setup).
func NewStation(dev *dram.Device, chamber *thermal.Chamber, timing Timing) (*Station, error) {
	if dev == nil {
		return nil, fmt.Errorf("memctrl: nil device")
	}
	if timing.BandwidthBytesPerSec <= 0 || timing.Efficiency <= 0 || timing.Efficiency > 1 {
		return nil, fmt.Errorf("memctrl: invalid timing %+v", timing)
	}
	if timing.DefaultTREFI <= 0 {
		return nil, fmt.Errorf("memctrl: invalid default tREFI %v", timing.DefaultTREFI)
	}
	s := &Station{dev: dev, chamber: chamber, timing: timing, refresh: true}
	dev.SetAutoRefresh(timing.DefaultTREFI)
	s.syncTemp()
	return s, nil
}

// Device returns the device under test.
func (s *Station) Device() *dram.Device { return s.dev }

// IndexStats returns the device's cumulative sparse-index disposition
// counters (how full-device sweeps skipped, flipped, sampled, or slow-pathed
// weak cells). The profiler records per-round deltas from it.
func (s *Station) IndexStats() dram.IndexStats { return s.dev.IndexStats() }

// IncrStats returns the device's cumulative incremental round-cache counters
// (sweeps served from cached classifications vs classified in full). The
// profiler records per-round deltas from it.
func (s *Station) IncrStats() dram.IncrStats { return s.dev.IncrStats() }

// Clock returns the current simulated time in seconds.
func (s *Station) Clock() float64 { return s.clock.Now() }

// Timing returns the station's timing parameters.
func (s *Station) Timing() Timing { return s.timing }

// Stats returns the accumulated time accounting.
func (s *Station) Stats() Stats { return s.stats }

// ResetStats zeroes the time accounting (the clock keeps running).
func (s *Station) ResetStats() { s.stats = Stats{} }

// advance moves simulated time, the chamber, and the device temperature
// forward together.
func (s *Station) advance(d float64) {
	s.clock.Advance(d)
	if s.chamber != nil {
		s.chamber.Step(d)
	}
	s.syncTemp()
}

func (s *Station) syncTemp() {
	if s.chamber != nil {
		s.dev.SetTemperature(s.chamber.DeviceTemp() - 15)
	}
}

// Note on temperatures: the retention model is calibrated against *ambient*
// temperature (the paper quotes all conditions as ambient, with the device
// held ambient+15°C). syncTemp therefore feeds ambient = deviceTemp-15 to
// the device.

// SetAmbient commands the chamber to a new ambient setpoint and waits for it
// to settle (the simulated settle time is charged as idle time). Without a
// chamber the change is instantaneous. It returns the achieved ambient
// temperature.
func (s *Station) SetAmbient(tempC float64) float64 {
	if s.chamber == nil {
		s.dev.SetTemperature(tempC)
		return tempC
	}
	start := s.clock.Now()
	s.chamber.SetTarget(tempC)
	for !s.chamber.Settled(0.25) && s.clock.Now()-start < 3600 {
		s.advance(1)
	}
	// Hold briefly so the device's local heater tracks.
	s.advance(30)
	s.stats.IdleSeconds += s.clock.Now() - start
	return s.chamber.Target()
}

// Ambient returns the current ambient temperature at the device.
func (s *Station) Ambient() float64 { return s.dev.Temperature() }

// DisableRefresh pauses auto-refresh (Algorithm 1 line 6).
func (s *Station) DisableRefresh() {
	if s.refresh {
		s.trace.add(Command{Kind: CmdRefreshOff, Start: s.clock.Now(), End: s.clock.Now()})
	}
	s.refresh = false
	s.dev.SetAutoRefresh(0)
}

// EnableRefresh resumes auto-refresh at the default interval (line 8). The
// first refresh sweep after a refresh-paused window reads every row and
// restores what it read — cells that decayed during the pause are locked in
// as wrong values (the paper's Figure 1c) until their rows are rewritten.
func (s *Station) EnableRefresh() {
	if !s.refresh {
		s.dev.RestoreAll(s.clock.Now())
		s.trace.add(Command{Kind: CmdRefreshOn, Start: s.clock.Now(), End: s.clock.Now(),
			Interval: s.timing.DefaultTREFI})
	}
	s.refresh = true
	s.dev.SetAutoRefresh(s.timing.DefaultTREFI)
}

// RefreshEnabled reports whether auto-refresh is running.
func (s *Station) RefreshEnabled() bool { return s.refresh }

// SetRefreshInterval runs auto-refresh at a non-default interval (used by
// multi-rate refresh mechanisms). interval <= 0 disables refresh.
func (s *Station) SetRefreshInterval(interval float64) {
	if interval <= 0 {
		s.DisableRefresh()
		return
	}
	if !s.refresh {
		s.dev.RestoreAll(s.clock.Now())
		s.trace.add(Command{Kind: CmdRefreshOn, Start: s.clock.Now(), End: s.clock.Now(),
			Interval: interval})
	}
	s.refresh = true
	s.dev.SetAutoRefresh(interval)
}

// WritePattern streams a data pattern into the whole device (Algorithm 1
// line 5), charging one full write pass of latency.
func (s *Station) WritePattern(p dram.RowData) {
	start := s.clock.Now()
	d := s.timing.PassSeconds(s.dev.Geometry().TotalBytes())
	s.advance(d)
	s.dev.WriteAll(p, s.clock.Now())
	s.stats.WriteSeconds += d
	s.stats.WritePasses++
	s.stats.BytesWritten += s.dev.Geometry().TotalBytes()
	s.trace.add(Command{Kind: CmdWritePass, Start: start, End: s.clock.Now()})
}

// Wait lets seconds of simulated time pass (Algorithm 1 line 7 when refresh
// is disabled; idle time otherwise).
func (s *Station) Wait(seconds float64) {
	if seconds <= 0 {
		return
	}
	start := s.clock.Now()
	s.advance(seconds)
	if s.refresh {
		s.stats.IdleSeconds += seconds
	} else {
		s.stats.WaitSeconds += seconds
	}
	s.trace.add(Command{Kind: CmdWait, Start: start, End: s.clock.Now(), Interval: seconds})
}

// WriteWord performs a single random word write (used by mitigation
// mechanisms operating on live data), charging one access latency.
func (s *Station) WriteWord(bank, row, word int, val uint64) error {
	start := s.clock.Now()
	s.advance(s.timing.AccessSeconds)
	s.trace.add(Command{Kind: CmdWriteWord, Start: start, End: s.clock.Now()})
	return s.dev.WriteWord(bank, row, word, val, s.clock.Now())
}

// ReadWord performs a single random word read, charging one access latency.
func (s *Station) ReadWord(bank, row, word int) (uint64, error) {
	start := s.clock.Now()
	s.advance(s.timing.AccessSeconds)
	s.trace.add(Command{Kind: CmdReadWord, Start: start, End: s.clock.Now()})
	return s.dev.ReadWord(bank, row, word, s.clock.Now())
}

// SaveData streams the device's entire contents out to (notional)
// secondary storage, charging one full read pass, and returns the snapshot.
// The read restores every row, so cells that had already decayed are saved
// (and locked in) with their corrupted values — saving cannot heal data.
// This is the paper's footnote-4 save step before a profiling round.
func (s *Station) SaveData() *dram.ContentSnapshot {
	start := s.clock.Now()
	d := s.timing.PassSeconds(s.dev.Geometry().TotalBytes())
	s.advance(d)
	s.dev.RestoreAll(s.clock.Now())
	snap := s.dev.SnapshotContent()
	s.stats.ReadSeconds += d
	s.stats.ReadPasses++
	s.stats.BytesRead += s.dev.Geometry().TotalBytes()
	s.trace.add(Command{Kind: CmdReadPass, Start: start, End: s.clock.Now()})
	return snap
}

// RestoreData streams a snapshot back into the device, charging one full
// write pass — the paper's footnote-4 restore step after profiling.
func (s *Station) RestoreData(snap *dram.ContentSnapshot) error {
	start := s.clock.Now()
	d := s.timing.PassSeconds(s.dev.Geometry().TotalBytes())
	s.advance(d)
	if err := s.dev.RestoreContent(snap, s.clock.Now()); err != nil {
		return err
	}
	s.stats.WriteSeconds += d
	s.stats.WritePasses++
	s.stats.BytesWritten += s.dev.Geometry().TotalBytes()
	s.trace.add(Command{Kind: CmdWritePass, Start: start, End: s.clock.Now()})
	return nil
}

// ReadCompare streams the whole device out, compares against the written
// content, and returns the failing bit addresses (Algorithm 1 line 9),
// charging one full read pass of latency.
func (s *Station) ReadCompare() []uint64 {
	start := s.clock.Now()
	d := s.timing.PassSeconds(s.dev.Geometry().TotalBytes())
	s.advance(d)
	fails := s.dev.ReadCompareAll(s.clock.Now())
	s.stats.ReadSeconds += d
	s.stats.ReadPasses++
	s.stats.BytesRead += s.dev.Geometry().TotalBytes()
	s.trace.add(Command{Kind: CmdReadPass, Start: start, End: s.clock.Now()})
	return fails
}
