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

// LPDDR4-class energy constants of the modelled 32-chip module. Because
// refresh energy scales with the number of rows (capacity) while a large
// part of background power is fixed per module, the refresh share of total
// power grows with density — ~15% for a 32GB (32 x 8Gb) module and ~45% for
// a 256GB (32 x 64Gb) module at the default 64 ms interval, matching the
// paper's motivation ("up to 50%" for dense devices) and the Figure 13
// power reductions.
const (
	// activatePJ is the energy of one row activate+precharge pair.
	activatePJ = 15000
	// readPJPerByte and writePJPerByte are the per-byte access energies
	// (I/O plus array).
	readPJPerByte  = 25
	writePJPerByte = 25
	// refreshPJPerRow is the energy to refresh one row (~0.1 W/GB at
	// 64 ms).
	refreshPJPerRow = 12200
	// backgroundBaseW is the fixed per-module background power (interface
	// clocking, PLLs, controller-side termination) independent of
	// capacity.
	backgroundBaseW = 16
	// backgroundMWPerGB is the capacity-proportional standby power
	// (leakage, peripheral logic).
	backgroundMWPerGB = 60
)

// RowBytes is the row size used to convert capacity to row counts.
const RowBytes = 2048

// RefreshWatts returns the average power spent refreshing a device of the
// given capacity at per-row refresh interval tREFI (seconds). tREFI <= 0
// means refresh is disabled and costs nothing.
func RefreshWatts(bytes int64, tREFI float64) float64 {
	if tREFI <= 0 || bytes <= 0 {
		return 0
	}
	rows := float64(bytes) / RowBytes
	refreshesPerSec := rows / tREFI
	return refreshesPerSec * refreshPJPerRow * 1e-12
}

// BackgroundWatts returns the standby power: the fixed per-module component
// plus the capacity-proportional component.
func BackgroundWatts(bytes int64) float64 {
	return backgroundBaseW + backgroundMWPerGB*1e-3*float64(bytes)/(1<<30)
}

// AccessEnergyJoules returns the energy of a traffic volume.
func AccessEnergyJoules(bytesRead, bytesWritten, activations int64) float64 {
	return (float64(bytesRead)*readPJPerByte +
		float64(bytesWritten)*writePJPerByte +
		float64(activations)*activatePJ) * 1e-12
}

// AccessWatts converts a traffic volume over an interval to average power.
func AccessWatts(bytesRead, bytesWritten, activations int64, intervalSeconds float64) float64 {
	if intervalSeconds <= 0 {
		return 0
	}
	return AccessEnergyJoules(bytesRead, bytesWritten, activations) / intervalSeconds
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
func SystemPower(bytes int64, tREFI float64, readBps, writeBps, activationsPerSec float64) Breakdown {
	return Breakdown{
		BackgroundW: BackgroundWatts(bytes),
		RefreshW:    RefreshWatts(bytes, tREFI),
		AccessW: (readBps*readPJPerByte +
			writeBps*writePJPerByte +
			activationsPerSec*activatePJ) * 1e-12,
	}
}
