// Package perfmodel implements the paper's analytic performance models:
//
//   - Equation 9, the end-to-end profiling-round runtime:
//     T_profile = (T_REFI + T_wr + T_rd) * N_dp * N_it
//     with T_wr = T_rd the profiling station's whole-capacity pass time
//     (memctrl.PassSeconds): the empirically measured 0.125 s per 2GB,
//     scaled by DRAM capacity (Section 7.3.1).
//
//   - Equation 8, the throughput model accounting for online profiling:
//     IPC_real = IPC_ideal * (1 - profiling_overhead)
//     under the paper's worst-case assumption that the system makes zero
//     forward progress while a profiling round runs.
package perfmodel

import "reaper/internal/memctrl"

// RoundConfig describes one online profiling round.
type RoundConfig struct {
	// TREFI is the profiling refresh interval in seconds (the time spent
	// with refresh disabled per pass).
	TREFI float64
	// NumPatterns is N_dp, the number of data patterns per iteration.
	NumPatterns int
	// NumIterations is N_it.
	NumIterations int
	// TotalBytes is the capacity profiled (e.g. 32 chips x 8 Gb).
	TotalBytes int64
	// SpeedupFactor divides the round time; 1 for brute-force profiling,
	// 2.5 for REAPER's experimentally measured reach-profiling speedup
	// (Section 6.1.2). Zero is treated as 1.
	SpeedupFactor float64
}

// RoundSeconds evaluates Equation 9, divided by the speedup factor.
func (c RoundConfig) RoundSeconds() float64 {
	pass := memctrl.PassSeconds(c.TotalBytes)
	t := (c.TREFI + 2*pass) * float64(c.NumPatterns) * float64(c.NumIterations)
	if c.SpeedupFactor > 1 {
		t /= c.SpeedupFactor
	}
	return t
}

// OverheadFraction returns the proportion of total system time consumed by
// profiling when one round runs every profilingInterval seconds — the
// quantity plotted in Figure 11. The result is capped at 1 (profiling that
// takes longer than its own interval leaves no time for anything else).
func (c RoundConfig) OverheadFraction(profilingIntervalSeconds float64) float64 {
	if profilingIntervalSeconds <= 0 {
		return 1
	}
	f := c.RoundSeconds() / profilingIntervalSeconds
	if f > 1 {
		return 1
	}
	return f
}

// RealIPC evaluates Equation 8: the throughput the system actually achieves
// given the ideal (no-profiling) throughput and the profiling overhead
// fraction.
func RealIPC(idealIPC, overheadFraction float64) float64 {
	if overheadFraction < 0 {
		overheadFraction = 0
	}
	if overheadFraction > 1 {
		overheadFraction = 1
	}
	return idealIPC * (1 - overheadFraction)
}

// CommandCounts estimates the DRAM command volume of one profiling round,
// for the power model: every pass writes and then reads/compares the whole
// capacity once per pattern per iteration.
type CommandCounts struct {
	BytesWritten int64
	BytesRead    int64
	// RowActivations is the number of row activate/precharge pairs.
	RowActivations int64
}

// Commands returns the command volume of one round. rowBytes is the row
// size used to count activations (a full sequential pass activates each row
// once per pass).
func (c RoundConfig) Commands(rowBytes int64) CommandCounts {
	passes := int64(c.NumPatterns) * int64(c.NumIterations)
	perPassRows := c.TotalBytes / rowBytes
	return CommandCounts{
		BytesWritten:   c.TotalBytes * passes,
		BytesRead:      c.TotalBytes * passes,
		RowActivations: perPassRows * passes * 2, // one for write, one for read
	}
}
