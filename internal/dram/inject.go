package dram

import (
	"math"
	"slices"
	"sort"

	"reaper/internal/rng"
)

// This file implements the device-side fault-injection hooks used by
// internal/faultinject: controlled ways to perturb a live device with the
// paper's adversities — new-weak-cell arrival (Figure 4), VRT state forcing
// (Section 2.3.1), and data-pattern-dependence reshuffling (Section 2.3.2).
//
// Every method draws exclusively from the caller-supplied rng stream. The
// device's own stream (d.src) encodes the chip's sampled identity and its
// read history; consuming draws from it here would silently change every
// subsequent read outcome and break the seed-stability guarantees the
// snapshot tests pin down.

// InjectWeakCellAt adds one weak cell at the given bit position, with a
// retention mean drawn from the vendor's calibrated power-law tail capped at
// maxMuSeconds (<= 0 means the device's full retention domain). It returns
// false if the bit already hosts a weak cell. now is the current simulated
// time; the new cell participates in reads from the next row activation on.
//
// Note that injection changes the weak-cell population, so content snapshots
// taken before the call can no longer be restored (RestoreContent checks the
// population length).
func (d *Device) InjectWeakCellAt(src *rng.Source, bit uint64, maxMuSeconds, now float64) bool {
	if !d.injectWeakCell(src, bit, maxMuSeconds) {
		return false
	}
	d.recountRows()
	_ = now
	return true
}

// injectWeakCell is InjectWeakCellAt without the row offsets, which the
// caller recounts once per batch.
func (d *Device) injectWeakCell(src *rng.Source, bit uint64, maxMuSeconds float64) bool {
	if bit >= uint64(d.geom.TotalBits()) {
		return false
	}
	i := sort.Search(len(d.weak), func(i int) bool { return d.weak[i].bit >= bit })
	if i < len(d.weak) && d.weak[i].bit == bit {
		return false
	}
	d.insertWeakCell(d.newInjectedCell(src, bit, maxMuSeconds), i)
	return true
}

// InjectWeakCells adds n weak cells at fresh random bit positions, modelling
// the steady-state arrival of new retention failures (Figure 4 / Equation 7's
// accumulation term A). Retention means are drawn from the vendor power-law
// tail capped at maxMuSeconds (<= 0: full domain). It returns the injected
// bit indices in ascending order; a device with fewer than n bits left that
// are not already weak gets only that many.
func (d *Device) InjectWeakCells(src *rng.Source, n int, maxMuSeconds, now float64) []uint64 {
	total := uint64(d.geom.TotalBits())
	n = max(0, min(n, int(total)-len(d.weak)))
	bits := make([]uint64, 0, n)
	for len(bits) < n {
		bit := src.Uint64n(total)
		if d.injectWeakCell(src, bit, maxMuSeconds) {
			bits = append(bits, bit)
		}
	}
	if n > 0 {
		d.recountRows()
	}
	slices.Sort(bits)
	return bits
}

// newInjectedCell samples one permanent (non-VRT) weak cell from the vendor
// distributions using the caller's stream.
func (d *Device) newInjectedCell(src *rng.Source, bit uint64, maxMuSeconds float64) *weakCell {
	v := &d.vend
	tmin, tmax := d.cfg.MinRetention, d.cfg.MaxRetention
	if maxMuSeconds > 0 && maxMuSeconds < tmax {
		tmax = maxMuSeconds
	}
	if tmax < tmin {
		tmax = tmin
	}
	mu := newPowerLaw(tmin, tmax, v.BERExponent).sample(src)
	sigma := src.LogNormal(v.sigmaLogMean(), v.SigmaLogSigma)
	if sigmaCap := mu / 5; sigma > sigmaCap {
		sigma = sigmaCap
	}
	sens := 0.0
	if !d.cfg.DisableDPD {
		u := src.Float64()
		sens = v.DPDStrength * u * u
	}
	c := d.allocCell()
	*c = weakCell{
		bit:        bit,
		mu:         mu,
		sigma:      sigma,
		chargedVal: uint8(src.Intn(2)),
		dpdSens:    sens,
		dpdSeed:    src.Uint64(),
		stuck:      -1,
	}
	return c
}

// insertWeakCell places c into the sorted weak slice at index i (preserving
// bit order) and into the activation index (preserving key order). The cell
// also joins the round-cache dirty list so live cached classifications fold
// it in on their next hit, and the injection journal so the delta codec can
// replay the arrival. The row offsets are left stale: the caller runs
// recountRows once its batch is in, before any read.
func (d *Device) insertWeakCell(c *weakCell, i int) {
	d.weak = slices.Insert(d.weak, i, c)
	d.indexInsert(c)
	d.noteDirtyCell(c)
	d.injected = append(d.injected, c)
}

// ForceVRTLowBurst forces up to n VRT cells that are currently in their
// high-retention state into the low-retention state, modelling a burst of
// VRT escapes (Section 2.3.1: cells that profiled clean because they were in
// the long state suddenly start failing). Only cells whose low-state
// retention mean is at most maxMuLowSeconds are eligible (<= 0: no bound),
// which lets a fault scenario target cells that actually fail at the
// interval under test. The forced cells' next natural transition is
// rescheduled from the caller's stream. Returns the forced bits, ascending.
func (d *Device) ForceVRTLowBurst(src *rng.Source, n int, maxMuLowSeconds, now float64) []uint64 {
	var candidates []*weakCell
	for _, c := range d.weak {
		if c.vrt == nil {
			continue
		}
		c.vrt.advance(now)
		if c.vrt.inLow {
			continue
		}
		if maxMuLowSeconds > 0 && c.vrt.muLow > maxMuLowSeconds {
			continue
		}
		candidates = append(candidates, c)
	}
	var bits []uint64
	for len(bits) < n && len(candidates) > 0 {
		i := src.Intn(len(candidates))
		c := candidates[i]
		candidates[i] = candidates[len(candidates)-1]
		candidates = candidates[:len(candidates)-1]
		c.vrt.inLow = true
		dwell := src.Exp(c.vrt.dwellLow)
		if dwell < 600 {
			dwell = 600
		}
		c.vrt.nextSwitch = now + dwell
		// The forced baseline replaces the construction draw, so natural
		// catch-up can no longer reproduce this cell: journal it for the
		// delta codec.
		if !c.vrtTracked {
			c.vrtTracked = true
			d.vrtForced = append(d.vrtForced, c)
		}
		bits = append(bits, c.bit)
	}
	slices.Sort(bits)
	return bits
}

// RescrambleDPD re-randomizes the data-pattern coupling of up to n
// DPD-sensitive weak cells: each selected cell gets a fresh dpdSeed, so the
// neighbourhood data that used to expose its worst-case retention no longer
// does and vice versa. This models the paper's Section 2.3.2 hazard — data
// rewritten after profiling shifts which cells the stored pattern exposes —
// as a mutation event a soak scenario can fire on rewrites. Returns the
// affected bits, ascending.
func (d *Device) RescrambleDPD(src *rng.Source, n int) []uint64 {
	var candidates []*weakCell
	for _, c := range d.weak {
		if c.dpdSens > 0 {
			candidates = append(candidates, c)
		}
	}
	var bits []uint64
	for len(bits) < n && len(candidates) > 0 {
		i := src.Intn(len(candidates))
		c := candidates[i]
		candidates[i] = candidates[len(candidates)-1]
		candidates = candidates[:len(candidates)-1]
		c.dpdSeed = src.Uint64()
		if !c.dpdTracked {
			c.dpdTracked = true
			d.dpdReseeded = append(d.dpdReseeded, c)
		}
		bits = append(bits, c.bit)
	}
	slices.Sort(bits)
	// dpdSeed feeds the classification threshold hash, so cached round
	// classifications may silently be wrong for the rescrambled cells: drop
	// them all (the only injection hook that must).
	if len(bits) > 0 {
		d.invalidateRounds()
	}
	return bits
}

// VRTCellsInLow reports, of the device's VRT cells with low-state retention
// mean at most maxMuLowSeconds (<= 0: all), how many are currently in the
// low state. Fault scenarios use it to size escape bursts.
func (d *Device) VRTCellsInLow(maxMuLowSeconds, now float64) (inLow, total int) {
	for _, c := range d.weak {
		if c.vrt == nil {
			continue
		}
		if maxMuLowSeconds > 0 && c.vrt.muLow > maxMuLowSeconds {
			continue
		}
		c.vrt.advance(now)
		total++
		if c.vrt.inLow {
			inLow++
		}
	}
	return inLow, total
}

// powerLaw draws t in [tmin, tmax] with CDF proportional to t^beta by
// inverting the CDF. The bound powers and the exponent's reciprocal are
// constants of a sampling loop, so newPowerLaw computes them once and each
// draw pays one math.Pow; the same inputs give the same float64s as
// evaluating all three per draw.
type powerLaw struct{ lo, hi, invBeta float64 }

func newPowerLaw(tmin, tmax, beta float64) powerLaw {
	return powerLaw{lo: math.Pow(tmin, beta), hi: math.Pow(tmax, beta), invBeta: 1 / beta}
}

// sample draws one value from src.
func (p powerLaw) sample(src *rng.Source) float64 {
	u := src.Float64()
	return math.Pow(p.lo+u*(p.hi-p.lo), p.invBeta)
}
