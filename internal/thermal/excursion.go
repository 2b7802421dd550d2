package thermal

import (
	"fmt"
	"math"
)

// Excursion models a transient ambient-temperature disturbance: an
// instantaneous step of PeakDeltaC at StartSeconds that relaxes back to the
// baseline exponentially with time constant TauSeconds — an HVAC failure, a
// hot aisle event, or a door opening. Equation 1 makes even a few degrees
// significant: at the paper's ~0.2/°C coefficients a +10°C excursion
// roughly 7x-es the failure rate while it lasts.
//
// An Excursion is a pure waveform; the fault injector applies it to a
// station's ambient, and a Chamber can be kicked with Disturb for
// closed-loop experiments.
type Excursion struct {
	// StartSeconds is the simulated time the excursion begins.
	StartSeconds float64
	// PeakDeltaC is the initial temperature step in °C (may be negative).
	PeakDeltaC float64
	// TauSeconds is the exponential relaxation time constant.
	TauSeconds float64
}

// Validate reports whether the excursion parameters are usable.
func (e Excursion) Validate() error {
	if e.TauSeconds <= 0 {
		return fmt.Errorf("thermal: non-positive excursion tau %v", e.TauSeconds)
	}
	return nil
}

// DeltaAt returns the excursion's temperature offset at simulated time now:
// zero before onset, then PeakDeltaC * exp(-(now-start)/tau).
func (e Excursion) DeltaAt(now float64) float64 {
	if now < e.StartSeconds || e.TauSeconds <= 0 {
		return 0
	}
	return e.PeakDeltaC * math.Exp(-(now-e.StartSeconds)/e.TauSeconds)
}

// Expired reports whether the excursion has decayed below absTolC degrees
// at simulated time now (always false before onset).
func (e Excursion) Expired(now, absTolC float64) bool {
	if now < e.StartSeconds {
		return false
	}
	return math.Abs(e.DeltaAt(now)) < absTolC
}
