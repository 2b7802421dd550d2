// Package longevity implements the paper's profile-longevity model
// (Section 6.2.3, Equation 7): how long a retention failure profile remains
// valid before reprofiling is required.
//
// Given the maximum tolerable number of retention failures N (from the ECC
// strength and target UBER, Table 1), the number of failures C missed by
// profiling due to imperfect coverage, and the steady-state new-failure
// accumulation rate A (Figure 4), the time before the accumulated and missed
// failures exceed the ECC budget is
//
//	T = (N - C) / A
//
// The paper's worked example — 2GB DRAM, SECDED, target 1024 ms at 45°C,
// 99% coverage — yields T ≈ 2.3 days.
package longevity

import (
	"fmt"
	"time"

	"reaper/internal/dram"
	"reaper/internal/ecc"
)

// Model bundles the system parameters longevity depends on.
type Model struct {
	// Code is the ECC used as the retention failure mitigation backstop.
	Code ecc.Code
	// TargetUBER is the acceptable uncorrectable bit error rate
	// (ecc.UBERConsumer or ecc.UBEREnterprise).
	TargetUBER float64
	// Bytes is the DRAM capacity protected.
	Bytes int64
	// Vendor supplies the failure-rate and accumulation-rate calibration.
	Vendor dram.VendorParams
	// TempC is the operating ambient temperature.
	TempC float64
}

// Validate reports whether the model parameters are usable.
func (m Model) Validate() error {
	if err := m.Code.Validate(); err != nil {
		return err
	}
	if m.TargetUBER <= 0 {
		return fmt.Errorf("longevity: non-positive target UBER")
	}
	if m.Bytes <= 0 {
		return fmt.Errorf("longevity: non-positive capacity")
	}
	return m.Vendor.Validate()
}

// TolerableFailures returns N: the number of failing cells the ECC can
// absorb while meeting the target UBER (Table 1 scaled to the capacity).
func (m Model) TolerableFailures() float64 {
	return m.Code.TolerableBitErrors(m.TargetUBER, m.Bytes)
}

// ExpectedFailures returns the expected number of failing cells at the
// target refresh interval (seconds) — the population the profiler must find.
func (m Model) ExpectedFailures(tREFI float64) float64 {
	return m.Vendor.BER(tREFI, m.TempC) * float64(m.Bytes) * 8
}

// MissedFailures returns C: the expected number of failing cells a profiler
// with the given coverage leaves undiscovered at the target interval.
func (m Model) MissedFailures(tREFI, coverage float64) float64 {
	if coverage < 0 {
		coverage = 0
	}
	if coverage > 1 {
		coverage = 1
	}
	return m.ExpectedFailures(tREFI) * (1 - coverage)
}

// AccumulationRate returns A in cells per hour: the steady-state rate at
// which new failures appear at the target interval (Figure 4's fits).
func (m Model) AccumulationRate(tREFI float64) float64 {
	return m.Vendor.VRTRate(tREFI, m.TempC, m.Bytes)
}

// Longevity returns T = (N - C) / A as a duration. It returns an error when
// the profiler's coverage is insufficient — the missed failures alone
// already exceed the ECC budget, so no reprofiling interval is safe.
func (m Model) Longevity(tREFI, coverage float64) (time.Duration, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if tREFI <= 0 {
		return 0, fmt.Errorf("longevity: non-positive target interval")
	}
	n := m.TolerableFailures()
	c := m.MissedFailures(tREFI, coverage)
	if c >= n {
		return 0, fmt.Errorf("longevity: coverage %.4f misses %.1f cells, exceeding the ECC budget of %.1f; minimum viable coverage is %.6f",
			coverage, c, n, m.MinimumCoverage(tREFI))
	}
	a := m.AccumulationRate(tREFI)
	if a <= 0 {
		// No accumulation: the profile never expires.
		return time.Duration(1<<62 - 1), nil
	}
	hours := (n - c) / a
	return time.Duration(hours * float64(time.Hour)), nil
}

// LongevityWithBudget is Longevity with an explicit tolerable-failure budget
// N instead of the one derived from the ECC model — useful to reproduce the
// paper's worked example with its own Table 1 figure (N = 65 for 2GB under
// SECDED at UBER 1e-15).
func (m Model) LongevityWithBudget(tREFI, coverage, n float64) (time.Duration, error) {
	if tREFI <= 0 {
		return 0, fmt.Errorf("longevity: non-positive target interval")
	}
	c := m.MissedFailures(tREFI, coverage)
	if c >= n {
		return 0, fmt.Errorf("longevity: missed failures %.1f exceed budget %.1f", c, n)
	}
	a := m.AccumulationRate(tREFI)
	if a <= 0 {
		return time.Duration(1<<62 - 1), nil
	}
	return time.Duration((n - c) / a * float64(time.Hour)), nil
}

// MinimumCoverage returns the smallest profiling coverage at which the
// missed failures stay within the ECC budget (C < N), i.e. the coverage
// below which no reprofiling frequency can keep the system correct.
func (m Model) MinimumCoverage(tREFI float64) float64 {
	n := m.TolerableFailures()
	e := m.ExpectedFailures(tREFI)
	if e <= 0 {
		return 0
	}
	min := 1 - n/e
	if min < 0 {
		return 0
	}
	return min
}
