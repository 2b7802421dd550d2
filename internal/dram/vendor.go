package dram

import (
	"fmt"
	"math"
)

// VendorParams is the per-vendor calibration of the retention model. The
// three vendor profiles below are fit to the quantities the paper publishes;
// where the paper gives only a figure without legible constants, the values
// are chosen to reproduce the figure's reported shape (see EXPERIMENTS.md).
type VendorParams struct {
	// Name identifies the vendor ("A", "B", "C").
	Name string

	// TempCoeff is the exponential temperature coefficient of the failure
	// rate (Equation 1): R ∝ exp(TempCoeff * ΔT). The paper measures
	// 0.22 / 0.20 / 0.26 per °C for vendors A / B / C, i.e. roughly 10x
	// more failures per +10°C.
	TempCoeff float64

	// BERAt1024ms is the raw bit error rate at a 1024 ms refresh interval
	// and 45°C. The paper's Section 6.2.3 example observes 2464 failing
	// cells in a 2GB module at these conditions, i.e. BER ≈ 1.43e-7.
	BERAt1024ms float64

	// BERExponent is the power-law exponent β of BER(t) ∝ t^β (Figure 2's
	// log-BER-vs-interval slope).
	BERExponent float64

	// SigmaLogMedianMS and SigmaLogSigma parameterize the lognormal
	// distribution of per-cell CDF standard deviations at the reference
	// temperature (Figure 6b: "majority of cells have a standard deviation
	// of less than 200ms" at 40°C). SigmaLogMedianMS is the median in
	// milliseconds.
	SigmaLogMedianMS float64
	SigmaLogSigma    float64

	// VRTFraction is the fraction of weak cells that exhibit variable
	// retention time (the paper excludes "~2% of all cells" as VRT in the
	// Figure 6 analysis).
	VRTFraction float64

	// VRTRatePer2GBAt1024 anchors the steady-state new-failure accumulation
	// rate: cells per hour per 2GB of capacity at a 1024 ms interval and
	// 45°C. The paper's Section 6.2.3 example measures A = 0.73 cells/hour
	// for a 2GB module at 1024 ms.
	VRTRatePer2GBAt1024 float64

	// VRTRateExponent is the power-law exponent b of the accumulation rate
	// versus refresh interval (Figure 4: y = a*x^b).
	VRTRateExponent float64

	// VRTDwellLowHours / VRTDwellHighHours are the mean dwell times of the
	// memoryless VRT process in the low- and high-retention states.
	VRTDwellLowHours  float64
	VRTDwellHighHours float64

	// DPDStrength bounds the per-cell data-pattern-dependent retention
	// shift: a cell's worst-case retention mean is lengthened by a factor
	// in [1, 1+2*DPDStrength] depending on the stored neighbourhood data
	// (Section 2.3.2).
	DPDStrength float64
}

// Validate reports whether the parameters are physically sensible.
func (v VendorParams) Validate() error {
	switch {
	case v.TempCoeff <= 0,
		v.BERAt1024ms <= 0,
		v.BERExponent <= 0,
		v.SigmaLogMedianMS <= 0,
		v.SigmaLogSigma <= 0,
		v.VRTFraction < 0 || v.VRTFraction > 1,
		v.VRTRatePer2GBAt1024 < 0,
		v.VRTRateExponent <= 0,
		v.VRTDwellLowHours <= 0,
		v.VRTDwellHighHours <= 0,
		v.DPDStrength < 0 || v.DPDStrength >= 1:
		return fmt.Errorf("dram: invalid vendor params %+v", v)
	}
	return nil
}

// The reference conditions all vendor parameters are quoted at.
const (
	// RefTempC is the reference ambient temperature (°C) of the paper's
	// characterization (Section 4).
	RefTempC = 45.0
	// refIntervalS is the reference refresh interval (seconds) BER and VRT
	// anchors are quoted at.
	refIntervalS = 1.024
)

// VendorA, VendorB and VendorC are the three calibrated vendor profiles.
// Vendor B is the paper's "representative chip" vendor.
func VendorA() VendorParams {
	return VendorParams{
		Name:                "A",
		TempCoeff:           0.22,
		BERAt1024ms:         1.1e-7,
		BERExponent:         2.6,
		SigmaLogMedianMS:    70,
		SigmaLogSigma:       0.65,
		VRTFraction:         0.02,
		VRTRatePer2GBAt1024: 0.55,
		VRTRateExponent:     3.6,
		VRTDwellLowHours:    8,
		VRTDwellHighHours:   40,
		DPDStrength:         0.35,
	}
}

// VendorB is the paper's representative-chip vendor profile.
func VendorB() VendorParams {
	return VendorParams{
		Name:                "B",
		TempCoeff:           0.20,
		BERAt1024ms:         1.43e-7,
		BERExponent:         2.8,
		SigmaLogMedianMS:    80,
		SigmaLogSigma:       0.6,
		VRTFraction:         0.02,
		VRTRatePer2GBAt1024: 0.73,
		VRTRateExponent:     3.9,
		VRTDwellLowHours:    10,
		VRTDwellHighHours:   50,
		DPDStrength:         0.35,
	}
}

// VendorC is the most temperature-sensitive of the calibrated profiles.
func VendorC() VendorParams {
	return VendorParams{
		Name:                "C",
		TempCoeff:           0.26,
		BERAt1024ms:         1.9e-7,
		BERExponent:         3.0,
		SigmaLogMedianMS:    90,
		SigmaLogSigma:       0.55,
		VRTFraction:         0.02,
		VRTRatePer2GBAt1024: 0.95,
		VRTRateExponent:     4.2,
		VRTDwellLowHours:    12,
		VRTDwellHighHours:   60,
		DPDStrength:         0.35,
	}
}

// Vendors returns the three vendor profiles in order A, B, C.
func Vendors() []VendorParams {
	return []VendorParams{VendorA(), VendorB(), VendorC()}
}

// BER returns the model raw bit error rate at refresh interval t (seconds)
// and ambient temperature tempC (°C): the expected fraction of device bits
// that are failing at those conditions.
func (v VendorParams) BER(t, tempC float64) float64 {
	if t <= 0 {
		return 0
	}
	return v.BERAt1024ms * pow(t/refIntervalS, v.BERExponent) * exp(v.TempCoeff*(tempC-RefTempC))
}

// VRTRate returns the model steady-state new-failure accumulation rate in
// cells per hour for a device of the given capacity, at refresh interval t
// (seconds) and temperature tempC.
func (v VendorParams) VRTRate(t, tempC float64, bytes int64) float64 {
	if t <= 0 {
		return 0
	}
	per2GB := v.VRTRatePer2GBAt1024 * pow(t/refIntervalS, v.VRTRateExponent)
	return per2GB * float64(bytes) / (2 << 30) * exp(v.TempCoeff*(tempC-RefTempC))
}

// RetentionScale returns Equation 1's multiplicative scale on per-cell
// retention means (and sigmas) at ambient temperature tempC. It is derived
// from the requirement that the failing-cell count N(t) ∝ t^β scale as
// exp(TempCoeff*ΔT): scaling all means by exp(-TempCoeff/β*ΔT) achieves
// exactly that for a power-law mean distribution. It is 1 at RefTempC.
func (v VendorParams) RetentionScale(tempC float64) float64 {
	return exp(-v.TempCoeff / v.BERExponent * (tempC - RefTempC))
}

// sigmaLogMean returns the log-space mean of the per-cell sigma lognormal:
// the log of SigmaLogMedianMS in seconds. Construction computes it once per
// population and injection once per cell, from the same expression.
func (v VendorParams) sigmaLogMean() float64 {
	return math.Log(v.SigmaLogMedianMS / 1000)
}
