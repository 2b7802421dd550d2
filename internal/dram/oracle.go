package dram

import "sort"

// This file exposes the device's latent ground truth. Real chips have no
// such interface — profiling mechanisms only ever see read/write results —
// but the reproduction needs it to *score* profilers: coverage and false
// positive rate (Section 6 of the paper) are defined against the true set of
// failing cells at the target conditions, which only the model can know.

// CellInfo describes one weak cell's latent parameters at the reference
// temperature. Used by the characterization harness to regenerate the
// paper's per-cell distribution figures (Figures 6 and 7).
type CellInfo struct {
	Bit        uint64
	Mu         float64 // seconds, at RefTempC, pattern-neutral, current VRT state
	Sigma      float64 // seconds, at RefTempC
	ChargedVal uint8
	VRT        bool
	DPDSens    float64
}

// Cells returns a snapshot of all weak cells' latent parameters at simulated
// time now (VRT cells report their current state's retention mean).
// Time arguments across Device calls must be non-decreasing.
func (d *Device) Cells(now float64) []CellInfo {
	out := make([]CellInfo, 0, len(d.weak))
	for _, c := range d.weak {
		out = append(out, CellInfo{
			Bit:        c.bit,
			Mu:         c.muAt(now),
			Sigma:      c.sigma,
			ChargedVal: c.chargedVal,
			VRT:        c.vrt != nil,
			DPDSens:    c.dpdSens,
		})
	}
	return out
}

// CellFailProb returns the probability that the cell at the given bit index
// fails a single read after tREFI seconds without refresh at ambient
// temperature tempC, under its worst-case data pattern, evaluated at
// simulated time now. Returns 0 for strong cells (bits not in the weak
// population).
func (d *Device) CellFailProb(bit uint64, tREFI, tempC, now float64) float64 {
	i := sort.Search(len(d.weak), func(i int) bool { return d.weak[i].bit >= bit })
	if i >= len(d.weak) || d.weak[i].bit != bit {
		return 0
	}
	return d.weak[i].worstCaseFailProb(tREFI, tempC, &d.vend, now)
}

// TrueFailingSet returns the ground-truth set of failing cells at the target
// conditions (refresh interval tREFI seconds, ambient temperature tempC),
// evaluated at simulated time now: every cell whose worst-case-pattern
// single-read failure probability is at least threshold. This operationalizes
// the paper's "all possible failing cells at the target refresh interval"
// (the limit of infinite brute-force iterations over all data patterns).
//
// A typical threshold is OracleThreshold.
//
// The set is exactly the cells whose worstCaseFailProb is >= threshold; cells
// far below their retention mean are excluded without the 16-code scan (see
// worstCaseReaches). Every cell's VRT state catches up to now, excluded or
// not.
func (d *Device) TrueFailingSet(tREFI, tempC, now, threshold float64) []uint64 {
	var out []uint64
	scale := d.vend.RetentionScale(tempC)
	for _, c := range d.weak {
		if c.worstCaseReaches(tREFI, c.muAt(now)*scale, c.sigma*scale, threshold) {
			out = append(out, c.bit)
		}
	}
	return out
}

// worstCaseReaches reports whether worstCaseFailProb, whose temperature-
// scaled retention mean and sigma are base and sigma, is at least threshold.
//
// A cell with elapsed more than farTailSigmas sigmas below base is excluded
// without the scan when dpdSens >= 0 and threshold >= farTailMinThreshold.
// Every code's DPD factor is then >= 1 (or NaN, which worstCaseAt never
// picks), so every code's mean is >= base and its failure CDF is at most
// Φ(-4) ≈ 3.2e-5. That bound is a factor of three below farTailMinThreshold,
// far more than the rounding of the CDF's few float operations can close.
// Everything else takes the exact 16-code scan: a NaN or non-positive base, a
// NaN, non-positive or infinite sigma, a negative or NaN dpdSens (a restored
// injected record can carry any of these), and every threshold under
// farTailMinThreshold.
func (c *weakCell) worstCaseReaches(elapsed, base, sigma, threshold float64) bool {
	if base > 0 && sigma > 0 && c.dpdSens >= 0 && threshold >= farTailMinThreshold &&
		elapsed < base-farTailSigmas*sigma {
		return false
	}
	return c.worstCaseAt(elapsed, base, sigma) >= threshold
}

// farTailSigmas and farTailMinThreshold define worstCaseReaches's exact cut:
// a failure CDF evaluated farTailSigmas sigmas below its mean is below every
// threshold >= farTailMinThreshold.
const (
	farTailSigmas       = 4
	farTailMinThreshold = 1e-4
)

// OracleThreshold is the default minimum single-read worst-case failure
// probability for a cell to count as a "possible failing cell" at given
// conditions. 1e-3 corresponds to a cell that would be observed at least
// once in a thousand brute-force trials.
const OracleThreshold = 1e-3
