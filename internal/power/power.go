// Package power is a DRAMPower-style energy model for LPDDR4: energy per
// command (activate/precharge, read, write, refresh) plus capacity-dependent
// background power. It substitutes for the DRAMPower tool the paper uses to
// evaluate DRAM power (Section 7.2), with public LPDDR4-class constants.
//
// Two paper results rest on it: Figure 12 (the power cost of profiling
// itself, which is tiny because profiling time is dominated by waiting with
// refresh disabled) and the bottom half of Figure 13 (DRAM power reduction
// from longer refresh intervals, up to ~40-50% at large capacities where
// refresh dominates).
package power

// Params holds the energy-per-operation constants.
type Params struct {
	// ActivatePJ is the energy of one row activate+precharge pair.
	ActivatePJ float64
	// ReadPJPerByte / WritePJPerByte are the per-byte access energies
	// (I/O plus array).
	ReadPJPerByte  float64
	WritePJPerByte float64
	// RefreshPJPerRow is the energy to refresh one row.
	RefreshPJPerRow float64
	// BackgroundBaseW is the fixed per-module background power (interface
	// clocking, PLLs, controller-side termination) independent of
	// capacity.
	BackgroundBaseW float64
	// BackgroundMWPerGB is the capacity-proportional standby power
	// (leakage, peripheral logic).
	BackgroundMWPerGB float64
	// RowBytes is the row size used to convert capacity to row counts.
	RowBytes int64
}

// DefaultParams returns LPDDR4-class constants for a 32-chip module.
// Because refresh energy scales with the number of rows (capacity) while a
// large part of background power is fixed per module, the refresh share of
// total power grows with density — ~15% for a 32GB (32 x 8Gb) module and
// ~45% for a 256GB (32 x 64Gb) module at the default 64 ms interval,
// matching the paper's motivation ("up to 50%" for dense devices) and the
// Figure 13 power reductions.
func DefaultParams() Params {
	return Params{
		ActivatePJ:        15000, // 15 nJ per ACT+PRE pair
		ReadPJPerByte:     25,
		WritePJPerByte:    25,
		RefreshPJPerRow:   12200, // 12.2 nJ per row refresh -> ~0.1 W/GB at 64 ms
		BackgroundBaseW:   16,
		BackgroundMWPerGB: 60,
		RowBytes:          2048,
	}
}

// RefreshWatts returns the average power spent refreshing a device of the
// given capacity at per-row refresh interval tREFI (seconds). tREFI <= 0
// means refresh is disabled and costs nothing.
func (p Params) RefreshWatts(bytes int64, tREFI float64) float64 {
	if tREFI <= 0 || bytes <= 0 {
		return 0
	}
	rows := float64(bytes) / float64(p.RowBytes)
	refreshesPerSec := rows / tREFI
	return refreshesPerSec * p.RefreshPJPerRow * 1e-12
}

// BackgroundWatts returns the standby power: the fixed per-module component
// plus the capacity-proportional component.
func (p Params) BackgroundWatts(bytes int64) float64 {
	return p.BackgroundBaseW + p.BackgroundMWPerGB*1e-3*float64(bytes)/(1<<30)
}

// AccessEnergyJoules returns the energy of a traffic volume.
func (p Params) AccessEnergyJoules(bytesRead, bytesWritten, activations int64) float64 {
	return (float64(bytesRead)*p.ReadPJPerByte +
		float64(bytesWritten)*p.WritePJPerByte +
		float64(activations)*p.ActivatePJ) * 1e-12
}

// AccessWatts converts a traffic volume over an interval to average power.
func (p Params) AccessWatts(bytesRead, bytesWritten, activations int64, intervalSeconds float64) float64 {
	if intervalSeconds <= 0 {
		return 0
	}
	return p.AccessEnergyJoules(bytesRead, bytesWritten, activations) / intervalSeconds
}

// Breakdown is an average-power decomposition of a DRAM subsystem.
type Breakdown struct {
	BackgroundW float64
	RefreshW    float64
	AccessW     float64
}

// TotalW returns the sum of the components.
func (b Breakdown) TotalW() float64 { return b.BackgroundW + b.RefreshW + b.AccessW }

// SystemPower returns the power breakdown of a DRAM subsystem of the given
// capacity refreshed at tREFI, serving the given steady access traffic
// (bytes/s and activations/s).
func (p Params) SystemPower(bytes int64, tREFI float64, readBps, writeBps, activationsPerSec float64) Breakdown {
	return Breakdown{
		BackgroundW: p.BackgroundWatts(bytes),
		RefreshW:    p.RefreshWatts(bytes, tREFI),
		AccessW: (readBps*p.ReadPJPerByte +
			writeBps*p.WritePJPerByte +
			activationsPerSec*p.ActivatePJ) * 1e-12,
	}
}
