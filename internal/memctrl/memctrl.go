// Package memctrl provides the command-level memory-controller substrate the
// profiler runs on: a simulated clock, LPDDR4 bandwidth/latency accounting,
// refresh control, and a Station that couples one dram.Device, or the chips
// of a module, to a thermal.Chamber behind the same write-pattern /
// disable-refresh / wait / read-and-compare interface the paper's FPGA
// infrastructure (SoftMC-style) exposes (Section 4, Algorithm 1).
//
// All time is simulated: a six-day characterization run advances the Clock
// by six days while costing milliseconds of wall time. The Station charges
// every operation the same latency terms the paper's runtime model
// (Equation 9) charges — T_REFI waits plus whole-device pattern write and
// read passes — so profiling runtime measurements come out of the same
// bookkeeping real hardware would impose.
package memctrl

import (
	"context"
	"fmt"

	"reaper/internal/dram"
	"reaper/internal/parallel"
	"reaper/internal/telemetry"
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

// The station is the paper's one test controller: LPDDR4-3200 with 4 x16
// channels (Table 2 of the paper), a peak of 4 x 2 bytes x 3200 MT/s.
const (
	// DefaultTREFI is the JEDEC default refresh interval in seconds.
	DefaultTREFI = 0.064
	// passBytesPerSecond is the streaming rate of a whole-device data pass,
	// calibrated so a write or read pass over 2GB takes 0.125 s, the
	// empirical figure the paper measures on its infrastructure (Section
	// 7.3.1 footnote): about 67% of the peak, after command overheads, bank
	// conflicts and comparison work.
	passBytesPerSecond = 2 * (1 << 30) / 0.125
	// accessSeconds is the latency charged for a single random word access
	// (activate + column access + precharge).
	accessSeconds = 60e-9
)

// PassSeconds returns the time to stream-write or stream-read bytes of DRAM
// once (one data-pattern pass over a device of that capacity). It is also
// T_wr and T_rd of the Equation 9 model in perfmodel.
func PassSeconds(bytes int64) float64 {
	return float64(bytes) / passBytesPerSecond
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

// chipShift positions the chip index in a station-wide bit address: 48 bits
// of per-chip address space covers any realistic device.
const chipShift = 48

// GlobalBit composes a station-wide cell address from a chip index and the
// chip's own bit address. Chip 0's addresses are its device's, so a
// one-chip station reports the device's own addresses.
func GlobalBit(chip int, bit uint64) uint64 {
	return uint64(chip)<<chipShift | bit
}

// Station couples one chip, or the identical-geometry chips of a module, to
// a clock and (optionally) a thermal chamber behind the test interface
// profilers drive. A module's chips share the clock, the chamber and every
// command (Section 7 evaluates modules of 32 chips); a failing cell is
// reported at its GlobalBit address.
type Station struct {
	devs    []*dram.Device   //lint:serialized-elsewhere each device checkpoints through its own EncodeDelta/RestoreDelta pair
	chamber *thermal.Chamber //lint:serialized-elsewhere may be nil (temperature fixed); thermal state rides on the device's tempC
	clock   Clock
	refresh bool
	stats   Stats
	workers int                 //lint:serialized-elsewhere chip-pool size, set by whoever builds the station; results do not depend on it
	tele    *telemetry.Registry //lint:serialized-elsewhere attached by whoever builds the station, as the registry a campaign records into
	err     error               //lint:serialized-elsewhere a latched chip-pool panic ends the run it happened in; nothing resumes past it
}

// NewStation builds a station for the chips. They must share a geometry;
// one chip is the usual single-device station. chamber may be nil, in
// which case the chips keep the first chip's temperature and SetAmbient
// adjusts it instantly (an idealized isothermal setup).
func NewStation(chamber *thermal.Chamber, devs ...*dram.Device) (*Station, error) {
	if len(devs) == 0 {
		return nil, fmt.Errorf("memctrl: no device")
	}
	for i, d := range devs {
		if d == nil {
			return nil, fmt.Errorf("memctrl: nil device %d", i)
		}
		if d.Geometry() != devs[0].Geometry() {
			return nil, fmt.Errorf("memctrl: device %d geometry %v differs from %v", i, d.Geometry(), devs[0].Geometry())
		}
	}
	if devs[0].Geometry().TotalBits() >= 1<<chipShift {
		return nil, fmt.Errorf("memctrl: device too large for the station-wide address space")
	}
	s := &Station{devs: devs, chamber: chamber, refresh: true}
	s.EnableRefresh()
	s.setTemp(devs[0].Temperature())
	s.syncTemp()
	return s, nil
}

// SetWorkers bounds the chip pool that runs a multi-chip station's
// whole-chip operations (pattern writes, read-compares, refresh restores,
// ground truth); <= 0 means one worker per CPU. Each chip is a disjoint
// simulated device with its own RNG, so results are identical at any
// worker count.
func (s *Station) SetWorkers(n int) { s.workers = n }

// SetTelemetry attaches a registry: each write and read pass then records
// the module_* counters (passes, bytes moved, failing cells seen). They
// count passes, never the per-chip fan-out underneath them, so they are
// worker-count invariant.
func (s *Station) SetTelemetry(reg *telemetry.Registry) { s.tele = reg }

// Err returns the first failure of a multi-chip station's chip pool, which
// the test-interface methods cannot return: a panic inside a chip
// simulation, as a *parallel.PanicError. core.BruteForce checks it after
// every pass, a caller of core.Truth after the call. A one-chip station
// calls its device directly, so its panics propagate instead.
func (s *Station) Err() error { return s.err }

// Chips returns the number of chips on the station.
func (s *Station) Chips() int { return len(s.devs) }

// Device returns the station's first chip: the device under test of a
// one-chip station.
func (s *Station) Device() *dram.Device { return s.devs[0] }

// onChips runs fn on every chip of a multi-chip station on the chip pool
// and latches a panic in fn on Err. Callers run a one-chip station's
// device directly instead, so no closure escapes to the pool on its passes.
func (s *Station) onChips(fn func(ci int, d *dram.Device)) {
	//lint:ignore ctx-first TestStation interface methods cannot carry a ctx; cancellation is experiment-granular
	err := parallel.ForEach(context.Background(), len(s.devs), s.workers,
		func(_ context.Context, ci int) error {
			fn(ci, s.devs[ci])
			return nil
		})
	if err != nil && s.err == nil {
		s.err = err
	}
}

// gather runs fn on every chip of a multi-chip station on the chip pool
// and returns the chips' bit lists as one station-wide list: each chip's
// bits at their GlobalBit addresses, in chip order. The chip index
// occupies the high address bits, so ascending chip lists give an
// ascending result without a final sort.
func (s *Station) gather(fn func(d *dram.Device) []uint64) []uint64 {
	perChip := make([][]uint64, len(s.devs))
	s.onChips(func(ci int, d *dram.Device) {
		bits := fn(d)
		global := make([]uint64, len(bits))
		for i, bit := range bits {
			global[i] = GlobalBit(ci, bit)
		}
		perChip[ci] = global
	})
	var out []uint64
	for _, g := range perChip {
		out = append(out, g...)
	}
	return out
}

// IndexStats returns the station's cumulative sparse-index disposition
// counters (how full-device sweeps skipped, flipped, sampled, or
// slow-pathed weak cells), summed over its chips. The profiler records
// per-round deltas from it.
func (s *Station) IndexStats() dram.IndexStats {
	var total dram.IndexStats
	for _, d := range s.devs {
		total = total.Add(d.IndexStats())
	}
	return total
}

// IncrStats returns the station's cumulative incremental round-cache
// counters (sweeps served from cached classifications vs classified in
// full), summed over its chips. The profiler records per-round deltas from
// it.
func (s *Station) IncrStats() dram.IncrStats {
	var total dram.IncrStats
	for _, d := range s.devs {
		total = total.Add(d.IncrStats())
	}
	return total
}

// Clock returns the current simulated time in seconds.
func (s *Station) Clock() float64 { return s.clock.Now() }

// Stats returns the accumulated time accounting.
func (s *Station) Stats() Stats { return s.stats }

// advance moves simulated time, the chamber, and the chip temperatures
// forward together.
func (s *Station) advance(d float64) {
	s.clock.Advance(d)
	if s.chamber != nil {
		s.chamber.Step(d)
	}
	s.syncTemp()
}

// syncTemp sets every chip to the chamber's reading. Each reading draws
// sensor noise, so it is read once per sync and shared by all chips.
func (s *Station) syncTemp() {
	if s.chamber != nil {
		s.setTemp(s.chamber.DeviceTemp() - 15)
	}
}

// setTemp sets every chip's ambient temperature.
func (s *Station) setTemp(tempC float64) {
	for _, d := range s.devs {
		d.SetTemperature(tempC)
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
		s.setTemp(tempC)
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

// Ambient returns the current ambient temperature at the chips.
func (s *Station) Ambient() float64 { return s.devs[0].Temperature() }

// DisableRefresh pauses auto-refresh on every chip (Algorithm 1 line 6).
func (s *Station) DisableRefresh() {
	s.refresh = false
	for _, d := range s.devs {
		d.SetAutoRefresh(0)
	}
}

// EnableRefresh resumes auto-refresh at the default interval (line 8). The
// first refresh sweep after a refresh-paused window reads every row and
// restores what it read — cells that decayed during the pause are locked in
// as wrong values (the paper's Figure 1c) until their rows are rewritten.
func (s *Station) EnableRefresh() { s.SetRefreshInterval(DefaultTREFI) }

// SetRefreshInterval runs auto-refresh on every chip at the given interval
// (multi-rate refresh mechanisms set non-default ones). interval <= 0
// disables refresh.
func (s *Station) SetRefreshInterval(interval float64) {
	if interval <= 0 {
		s.DisableRefresh()
		return
	}
	if !s.refresh {
		now := s.clock.Now()
		if len(s.devs) == 1 {
			s.devs[0].RestoreAll(now)
		} else {
			s.onChips(func(_ int, d *dram.Device) { d.RestoreAll(now) })
		}
	}
	s.refresh = true
	for _, d := range s.devs {
		d.SetAutoRefresh(interval)
	}
}

// WritePattern streams a data pattern into every chip (Algorithm 1 line 5),
// charging one full write pass of latency.
func (s *Station) WritePattern(p dram.RowData) {
	now := s.pass(true)
	if len(s.devs) == 1 {
		s.devs[0].WriteAll(p, now)
		return
	}
	s.onChips(func(_ int, d *dram.Device) { d.WriteAll(p, now) })
}

// pass streams one whole-station write or read pass: it advances the clock
// by the pass time, charges the pass to the stats, and returns the pass's
// end, when its device operation runs. The chips fill and drain in
// parallel across their channels, so a pass moves the station's whole
// capacity at pass bandwidth, the time-per-capacity scaling the paper's
// Equation 9 uses.
func (s *Station) pass(write bool) float64 {
	bytes := int64(len(s.devs)) * s.devs[0].Geometry().TotalBytes()
	d := PassSeconds(bytes)
	s.advance(d)
	if write {
		s.stats.WriteSeconds += d
		s.stats.WritePasses++
		s.stats.BytesWritten += bytes
		s.tele.Counter("module_write_passes_total").Inc()
		s.tele.Counter("module_bytes_written_total").Add(bytes)
	} else {
		s.stats.ReadSeconds += d
		s.stats.ReadPasses++
		s.stats.BytesRead += bytes
		s.tele.Counter("module_read_passes_total").Inc()
		s.tele.Counter("module_bytes_read_total").Add(bytes)
	}
	return s.clock.Now()
}

// Wait lets seconds of simulated time pass (Algorithm 1 line 7 when refresh
// is disabled; idle time otherwise).
func (s *Station) Wait(seconds float64) {
	if seconds <= 0 {
		return
	}
	s.advance(seconds)
	if s.refresh {
		s.stats.IdleSeconds += seconds
	} else {
		s.stats.WaitSeconds += seconds
	}
}

// WriteWord performs a single random word write on the first chip (used by
// mitigation mechanisms operating on live data), charging one access
// latency.
func (s *Station) WriteWord(bank, row, word int, val uint64) error {
	s.advance(accessSeconds)
	return s.devs[0].WriteWord(bank, row, word, val, s.clock.Now())
}

// ReadWord performs a single random word read on the first chip, charging
// one access latency.
func (s *Station) ReadWord(bank, row, word int) (uint64, error) {
	s.advance(accessSeconds)
	return s.devs[0].ReadWord(bank, row, word, s.clock.Now())
}

// ReadCompare streams every chip out, compares against the written
// content, and returns the failing cells' ascending GlobalBit addresses
// (Algorithm 1 line 9), charging one full read pass of latency.
func (s *Station) ReadCompare() []uint64 {
	now := s.pass(false)
	var fails []uint64
	if len(s.devs) == 1 {
		fails = s.devs[0].ReadCompareAll(now)
	} else {
		fails = s.gather(func(d *dram.Device) []uint64 { return d.ReadCompareAll(now) })
	}
	s.tele.Counter("module_failing_cells_seen_total").Add(int64(len(fails)))
	return fails
}

// TrueFailingSet returns the ground-truth failing cells at the target
// conditions, evaluated at the station's current simulated time, at their
// GlobalBit addresses: the union of every chip's oracle. Only the
// simulator can answer it; it is how profiler quality is scored.
func (s *Station) TrueFailingSet(targetInterval, targetTempC float64) []uint64 {
	now := s.clock.Now()
	if len(s.devs) == 1 {
		return s.devs[0].TrueFailingSet(targetInterval, targetTempC, now, dram.OracleThreshold)
	}
	return s.gather(func(d *dram.Device) []uint64 {
		return d.TrueFailingSet(targetInterval, targetTempC, now, dram.OracleThreshold)
	})
}
