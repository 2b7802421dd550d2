// Package thermal models the paper's thermally controlled DRAM testing
// infrastructure (Section 4): ambient temperature is maintained by heaters
// and fans driven by a microcontroller PID loop to within 0.25°C over a
// reliable range of 40–55°C, and the DRAM device itself is held 15°C above
// ambient by a local heating source that smooths out self-heating.
//
// The model is a first-order thermal plant (heat capacity plus leakage to
// the room) under a PID controller with anti-windup, plus bounded sensor
// noise. The testbed has one chamber, so the plant and its setpoint range
// are constants; chambers differ only in the seed of their sensor noise.
// Reach profiling's temperature knob acts through this model: an
// experiment commands a setpoint, steps simulated time, and the *device*
// temperature that results feeds the retention model.
package thermal

import "reaper/internal/rng"

// PID is a discrete-time PID controller with output clamping and integral
// anti-windup (the integrator freezes while the output is saturated).
type PID struct {
	Kp, Ki, Kd     float64
	OutMin, OutMax float64

	integ   float64
	prevErr float64
	primed  bool
}

// Update advances the controller by dt seconds given the current error
// (setpoint - measurement) and returns the clamped actuator command.
func (p *PID) Update(err, dt float64) float64 {
	if dt <= 0 {
		return clamp(p.Kp*err+p.integ, p.OutMin, p.OutMax)
	}
	deriv := 0.0
	if p.primed {
		deriv = (err - p.prevErr) / dt
	}
	p.prevErr = err
	p.primed = true

	raw := p.Kp*err + p.integ + p.Ki*err*dt + p.Kd*deriv
	out := clamp(raw, p.OutMin, p.OutMax)
	// Anti-windup: only integrate when not pushing further into saturation.
	if raw == out || (raw > out && err < 0) || (raw < out && err > 0) {
		p.integ += p.Ki * err * dt
	}
	return out
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// The plant and setpoint range of the paper's chamber (Section 4).
const (
	// roomTempC is the lab temperature the chamber leaks heat to.
	roomTempC = 25
	// timeConstantS is the plant time constant in seconds (how quickly the
	// chamber approaches equilibrium).
	timeConstantS = 60
	// heaterGainC / coolerGainC are the equilibrium temperature deltas (°C
	// above/below room) at full heater / full fan drive.
	heaterGainC = 45
	coolerGainC = 10
	// sensorNoiseC is the standard deviation of the temperature sensor
	// noise in °C.
	sensorNoiseC = 0.05
	// deviceOffsetC is how far above ambient the DRAM device is held by
	// its local heater (the paper uses 15°C).
	deviceOffsetC = 15
	// minTempC / maxTempC bound the reliable setpoint range (paper: 40-55).
	minTempC, maxTempC = 40, 55
)

// Chamber is the PID-controlled thermal chamber plus the locally heated
// device under test.
type Chamber struct {
	pid      PID
	setpoint float64
	ambient  float64 // true plant temperature
	src      *rng.Source
}

// NewChamber builds a chamber initially at room temperature with the
// setpoint at the bottom of the reliable range; seed drives its sensor
// noise.
func NewChamber(seed uint64) *Chamber {
	// The gains scale with the time constant. Computing them from a
	// run-time float64 keeps their rounding that of float64 arithmetic,
	// which exact constant folding need not reproduce.
	tc := float64(timeConstantS)
	return &Chamber{
		pid: PID{
			Kp:     0.4,
			Ki:     0.4 / tc * 4,
			Kd:     0.05 * tc / 60,
			OutMin: -1,
			OutMax: 1,
		},
		ambient:  roomTempC,
		setpoint: minTempC,
		src:      rng.New(seed),
	}
}

// SetTarget commands a new ambient setpoint, clamped to the reliable range.
// It returns the clamped setpoint.
func (c *Chamber) SetTarget(tempC float64) float64 {
	c.setpoint = clamp(tempC, minTempC, maxTempC)
	return c.setpoint
}

// Target returns the current setpoint.
func (c *Chamber) Target() float64 { return c.setpoint }

// Step advances the chamber by dt seconds of simulated time. Long intervals
// are internally subdivided so the control loop stays well sampled.
func (c *Chamber) Step(dt float64) {
	const tick = 1.0 // seconds per control-loop iteration
	for dt > 0 {
		h := tick
		if dt < h {
			h = dt
		}
		c.stepOnce(h)
		dt -= h
	}
}

func (c *Chamber) stepOnce(dt float64) {
	measured := c.Ambient()
	u := c.pid.Update(c.setpoint-measured, dt)
	// u > 0 drives the heater, u < 0 the fans; the plant relaxes toward
	// the equilibrium implied by the actuator command.
	target := float64(roomTempC)
	if u >= 0 {
		target += u * heaterGainC
	} else {
		target += u * coolerGainC
	}
	c.ambient += (target - c.ambient) * dt / timeConstantS
}

// Ambient returns the measured ambient temperature (true plant temperature
// plus sensor noise).
func (c *Chamber) Ambient() float64 {
	return c.ambient + c.src.Norm()*sensorNoiseC
}

// DeviceTemp returns the temperature of the device under test: ambient plus
// the local-heater offset, with residual jitter well inside the paper's
// 0.25°C control accuracy.
func (c *Chamber) DeviceTemp() float64 {
	return c.ambient + deviceOffsetC + c.src.Norm()*sensorNoiseC
}

// Settled reports whether the true ambient temperature is within tol °C of
// the setpoint.
func (c *Chamber) Settled(tol float64) bool {
	d := c.ambient - c.setpoint
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// SettleTo commands a setpoint and steps the chamber until it settles within
// tol, returning the simulated seconds that took. It gives up (returning the
// elapsed time and false) after maxSeconds.
func (c *Chamber) SettleTo(tempC, tol, maxSeconds float64) (float64, bool) {
	c.SetTarget(tempC)
	elapsed := 0.0
	// Require the chamber to hold the band for a sustained window, not
	// just cross through it.
	const holdNeeded = 30.0
	held := 0.0
	for elapsed < maxSeconds {
		c.Step(1)
		elapsed++
		if c.Settled(tol) {
			held++
			if held >= holdNeeded {
				return elapsed, true
			}
		} else {
			held = 0
		}
	}
	return elapsed, false
}
