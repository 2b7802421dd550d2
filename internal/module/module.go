// Package module models a multi-chip DRAM module: several devices sharing
// one test controller, clock, and (optional) thermal chamber, as in the
// paper's infrastructure (Section 7 evaluates modules of 32 chips). A
// Module implements core.TestStation, so every profiler in this repository
// runs on it unchanged; failing cells are reported in a module-global
// address space (chip index folded into the high bits).
package module

import (
	"context"
	"fmt"

	"reaper/internal/core"
	"reaper/internal/dram"
	"reaper/internal/memctrl"
	"reaper/internal/parallel"
	"reaper/internal/telemetry"
	"reaper/internal/thermal"
)

// chipShift positions the chip index in the global bit address. 48 bits of
// per-chip address space covers any realistic device.
const chipShift = 48

// GlobalBit composes a module-global cell address.
func GlobalBit(chip int, bit uint64) uint64 {
	return uint64(chip)<<chipShift | bit
}

// SplitBit decomposes a module-global cell address.
func SplitBit(global uint64) (chip int, bit uint64) {
	return int(global >> chipShift), global & (1<<chipShift - 1)
}

// Module is a set of identical-geometry devices behind one controller.
type Module struct {
	devs    []*dram.Device
	chamber *thermal.Chamber
	clock   memctrl.Clock
	timing  memctrl.Timing
	refresh bool
	stats   memctrl.Stats
	ambient float64
	workers int
	err     error
	tele    *telemetry.Registry
}

// New builds a module over the devices. All devices must share a geometry.
// chamber may be nil (isothermal, instantaneous temperature changes).
func New(devs []*dram.Device, chamber *thermal.Chamber, timing memctrl.Timing) (*Module, error) {
	if len(devs) == 0 {
		return nil, fmt.Errorf("module: no devices")
	}
	geom := devs[0].Geometry()
	if geom.TotalBits() >= 1<<chipShift {
		return nil, fmt.Errorf("module: device too large for the global address space")
	}
	for i, d := range devs {
		if d == nil {
			return nil, fmt.Errorf("module: nil device %d", i)
		}
		if d.Geometry() != geom {
			return nil, fmt.Errorf("module: device %d geometry %v differs from %v",
				i, d.Geometry(), geom)
		}
	}
	if timing.BandwidthBytesPerSec <= 0 || timing.Efficiency <= 0 || timing.Efficiency > 1 ||
		timing.DefaultTREFI <= 0 {
		return nil, fmt.Errorf("module: invalid timing %+v", timing)
	}
	m := &Module{devs: devs, chamber: chamber, timing: timing, refresh: true,
		ambient: devs[0].Temperature()}
	for _, d := range devs {
		d.SetAutoRefresh(timing.DefaultTREFI)
	}
	m.syncTemp()
	return m, nil
}

// SetWorkers bounds the worker pool used for per-chip bulk operations
// (ReadCompare, refresh restores, Truth); <= 0 means one worker per CPU.
// Each chip is a disjoint simulated device with its own RNG, so results are
// identical at any worker count.
func (m *Module) SetWorkers(n int) { m.workers = n }

// SetTelemetry attaches a registry: each full-module write and read pass
// records the module_* counters (passes, bytes moved, failing cells seen).
// The counters are worker-count invariant — they count passes, never the
// per-chip fan-out underneath them.
func (m *Module) SetTelemetry(reg *telemetry.Registry) { m.tele = reg }

// forEachChip runs fn over every device on the module's worker pool. The
// per-chip simulations have no error path of their own; the returned error
// is a pool failure — a panic in fn captured as a *parallel.PanicError — so
// it is not lost on a worker goroutine.
func (m *Module) forEachChip(fn func(ci int, dev *dram.Device)) error {
	// The chip fan-out runs microsecond-scale device steps inside the
	// core.TestStation methods, whose signatures cannot carry a ctx;
	// cancellation happens at experiment granularity above this layer.
	//lint:ignore ctx-first TestStation interface methods cannot carry a ctx; cancellation is experiment-granular
	return parallel.ForEach(context.Background(), len(m.devs), m.workers,
		func(_ context.Context, ci int) error {
			fn(ci, m.devs[ci])
			return nil
		})
}

// fail latches the first chip-pool error raised inside a core.TestStation
// method, whose signatures cannot carry it. Err surfaces it to callers.
func (m *Module) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

// Err returns the first error a TestStation-interface operation encountered
// (nil when all operations succeeded). The interface methods EnableRefresh,
// SetRefreshInterval, WritePattern and ReadCompare cannot return errors
// without breaking every profiler; they latch failures here instead, and
// callers driving a module directly should check Err after a campaign.
func (m *Module) Err() error { return m.err }

// Chips returns the number of devices in the module.
func (m *Module) Chips() int { return len(m.devs) }

// Device returns one chip.
func (m *Module) Device(i int) *dram.Device { return m.devs[i] }

// TotalBytes returns the module capacity.
func (m *Module) TotalBytes() int64 {
	return int64(len(m.devs)) * m.devs[0].Geometry().TotalBytes()
}

// Clock returns simulated seconds.
func (m *Module) Clock() float64 { return m.clock.Now() }

// Stats returns the accumulated time accounting.
func (m *Module) Stats() memctrl.Stats { return m.stats }

func (m *Module) advance(d float64) {
	m.clock.Advance(d)
	if m.chamber != nil {
		m.chamber.Step(d)
	}
	m.syncTemp()
}

func (m *Module) syncTemp() {
	t := m.ambient
	if m.chamber != nil {
		t = m.chamber.DeviceTemp() - 15
	}
	for _, d := range m.devs {
		d.SetTemperature(t)
	}
}

// Ambient returns the module's ambient temperature.
func (m *Module) Ambient() float64 {
	if m.chamber == nil {
		return m.ambient
	}
	return m.devs[0].Temperature()
}

// SetAmbient changes the ambient temperature (settling through the chamber
// when present).
func (m *Module) SetAmbient(tempC float64) float64 {
	if m.chamber == nil {
		m.ambient = tempC
		m.syncTemp()
		return tempC
	}
	start := m.clock.Now()
	m.chamber.SetTarget(tempC)
	for !m.chamber.Settled(0.25) && m.clock.Now()-start < 3600 {
		m.advance(1)
	}
	m.advance(30)
	m.stats.IdleSeconds += m.clock.Now() - start
	return m.chamber.Target()
}

// DisableRefresh pauses auto-refresh on every chip.
func (m *Module) DisableRefresh() {
	m.refresh = false
	for _, d := range m.devs {
		d.SetAutoRefresh(0)
	}
}

// EnableRefresh resumes auto-refresh at the default interval, locking in
// any failures that accumulated while paused (see memctrl.Station).
func (m *Module) EnableRefresh() {
	if !m.refresh {
		now := m.clock.Now()
		if err := m.forEachChip(func(_ int, d *dram.Device) { d.RestoreAll(now) }); err != nil {
			m.fail(err)
		}
	}
	m.refresh = true
	for _, d := range m.devs {
		d.SetAutoRefresh(m.timing.DefaultTREFI)
	}
}

// SetRefreshInterval runs auto-refresh at a non-default interval on every
// chip; interval <= 0 disables refresh.
func (m *Module) SetRefreshInterval(interval float64) {
	if interval <= 0 {
		m.DisableRefresh()
		return
	}
	if !m.refresh {
		now := m.clock.Now()
		if err := m.forEachChip(func(_ int, d *dram.Device) { d.RestoreAll(now) }); err != nil {
			m.fail(err)
		}
	}
	m.refresh = true
	for _, d := range m.devs {
		d.SetAutoRefresh(interval)
	}
}

// WritePattern streams a pattern into every chip. The chips fill in
// parallel across their channels, so the pass is charged at module
// bandwidth over the module's capacity — the same time-per-capacity scaling
// the paper's Equation 9 uses.
func (m *Module) WritePattern(p dram.RowData) {
	d := m.timing.PassSeconds(m.TotalBytes())
	m.advance(d)
	now := m.clock.Now()
	if err := m.forEachChip(func(_ int, dev *dram.Device) { dev.WriteAll(p, now) }); err != nil {
		m.fail(err)
	}
	m.stats.WriteSeconds += d
	m.stats.WritePasses++
	m.stats.BytesWritten += m.TotalBytes()
	m.tele.Counter("module_write_passes_total").Inc()
	m.tele.Counter("module_bytes_written_total").Add(m.TotalBytes())
}

// Wait lets simulated time pass.
func (m *Module) Wait(seconds float64) {
	if seconds <= 0 {
		return
	}
	m.advance(seconds)
	if m.refresh {
		m.stats.IdleSeconds += seconds
	} else {
		m.stats.WaitSeconds += seconds
	}
}

// ReadCompare reads every chip back and returns the failing cells as
// module-global addresses. Chips are read on the worker pool; each chip's
// failure list is ascending and the chip index occupies the high address
// bits, so concatenating the per-chip lists in chip order yields the
// globally sorted result without a final sort.
func (m *Module) ReadCompare() []uint64 {
	d := m.timing.PassSeconds(m.TotalBytes())
	m.advance(d)
	now := m.clock.Now()
	perChip := make([][]uint64, len(m.devs))
	err := m.forEachChip(func(ci int, dev *dram.Device) {
		bits := dev.ReadCompareAll(now)
		global := make([]uint64, len(bits))
		for i, bit := range bits {
			global[i] = GlobalBit(ci, bit)
		}
		perChip[ci] = global
	})
	if err != nil {
		m.fail(err)
	}
	var fails []uint64
	for _, g := range perChip {
		fails = append(fails, g...)
	}
	m.stats.ReadSeconds += d
	m.stats.ReadPasses++
	m.stats.BytesRead += m.TotalBytes()
	m.tele.Counter("module_read_passes_total").Inc()
	m.tele.Counter("module_bytes_read_total").Add(m.TotalBytes())
	m.tele.Counter("module_failing_cells_seen_total").Add(int64(len(fails)))
	return fails
}

// IndexStats returns the module-wide sparse-index disposition counters: the
// element-wise sum over chips. Counter sums are commutative, so the result
// is identical at every worker count.
func (m *Module) IndexStats() dram.IndexStats {
	var total dram.IndexStats
	for _, dev := range m.devs {
		total = total.Add(dev.IndexStats())
	}
	return total
}

// IncrStats returns the module-wide incremental round-cache counters: the
// element-wise sum over chips.
func (m *Module) IncrStats() dram.IncrStats {
	var total dram.IncrStats
	for _, dev := range m.devs {
		total = total.Add(dev.IncrStats())
	}
	return total
}

// Truth returns the module-wide ground-truth failing set at the target
// conditions (the union of every chip's oracle, chip-offset). The error is
// a worker-pool failure (a panic inside a chip simulation, converted by
// internal/parallel); there is no per-chip error path.
func (m *Module) Truth(targetInterval, targetTempC float64) (*core.FailureSet, error) {
	now := m.clock.Now()
	perChip := make([][]uint64, len(m.devs))
	err := m.forEachChip(func(ci int, dev *dram.Device) {
		perChip[ci] = dev.TrueFailingSet(targetInterval, targetTempC, now, dram.OracleThreshold)
	})
	if err != nil {
		return nil, err
	}
	out := core.NewFailureSet()
	for ci, bits := range perChip {
		for _, bit := range bits {
			out.Add(GlobalBit(ci, bit))
		}
	}
	return out, nil
}

// Module must satisfy the profiling interface.
var _ core.TestStation = (*Module)(nil)
