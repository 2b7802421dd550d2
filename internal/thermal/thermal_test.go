package thermal

import (
	"math"
	"testing"
)

// Reset clears the controller state.
func (p *PID) Reset() {
	p.integ = 0
	p.prevErr = 0
	p.primed = false
}

func TestSetTargetClampsToReliableRange(t *testing.T) {
	c := NewChamber(1)
	if got := c.SetTarget(80); got != 55 {
		t.Errorf("SetTarget(80) = %v, want 55 (paper's max)", got)
	}
	if got := c.SetTarget(10); got != 40 {
		t.Errorf("SetTarget(10) = %v, want 40 (paper's min)", got)
	}
	if got := c.SetTarget(45); got != 45 {
		t.Errorf("SetTarget(45) = %v, want 45", got)
	}
	if c.Target() != 45 {
		t.Error("Target not persisted")
	}
}

func TestChamberSettlesWithinPaperAccuracy(t *testing.T) {
	c := NewChamber(1)
	for _, target := range []float64{45, 55, 40, 50} {
		elapsed, ok := c.SettleTo(target, 0.25, 3600)
		if !ok {
			t.Fatalf("chamber failed to settle at %v°C within an hour", target)
		}
		if elapsed <= 0 {
			t.Fatal("settle time must be positive")
		}
		// Hold for 10 minutes and verify the band is maintained.
		worst := 0.0
		for i := 0; i < 600; i++ {
			c.Step(1)
			if d := math.Abs(c.Ambient() - target); d > worst {
				worst = d
			}
		}
		// 0.25°C control accuracy plus a little sensor noise.
		if worst > 0.45 {
			t.Errorf("ambient deviated %v°C from %v°C while holding", worst, target)
		}
	}
}

func TestDeviceTempOffset(t *testing.T) {
	c := NewChamber(1)
	if _, ok := c.SettleTo(45, 0.25, 3600); !ok {
		t.Fatal("no settle")
	}
	sum := 0.0
	const n = 500
	for i := 0; i < n; i++ {
		c.Step(1)
		sum += c.DeviceTemp()
	}
	mean := sum / n
	// Device held 15°C above the 45°C ambient.
	if math.Abs(mean-60) > 0.5 {
		t.Errorf("device temp mean = %v, want ~60", mean)
	}
}

func TestStepSubdividesLongIntervals(t *testing.T) {
	a := NewChamber(1)
	b := NewChamber(1)
	a.SetTarget(50)
	b.SetTarget(50)
	// One big step vs many small ones must land in the same neighbourhood
	// (the big step is internally subdivided, so the plant cannot jump).
	a.Step(600)
	for i := 0; i < 600; i++ {
		b.Step(1)
	}
	if math.Abs(a.ambient-b.ambient) > 1 {
		t.Errorf("subdivided step diverged: %v vs %v", a.ambient, b.ambient)
	}
}

func TestSettleToGivesUp(t *testing.T) {
	c := NewChamber(1)
	elapsed, ok := c.SettleTo(55, 0.01, 3) // unreachable in 3 seconds
	if ok {
		t.Error("SettleTo claimed success in 3 seconds")
	}
	if elapsed < 3 {
		t.Errorf("elapsed = %v, want >= 3", elapsed)
	}
}

func TestPIDClampsOutput(t *testing.T) {
	p := PID{Kp: 100, Ki: 10, Kd: 0, OutMin: -1, OutMax: 1}
	if out := p.Update(1000, 1); out != 1 {
		t.Errorf("saturated high output = %v, want 1", out)
	}
	if out := p.Update(-1000, 1); out != -1 {
		t.Errorf("saturated low output = %v, want -1", out)
	}
}

func TestPIDAntiWindup(t *testing.T) {
	p := PID{Kp: 0.1, Ki: 1, Kd: 0, OutMin: -1, OutMax: 1}
	// Drive hard into saturation for a long time.
	for i := 0; i < 1000; i++ {
		p.Update(10, 1)
	}
	// With anti-windup the integrator must not have accumulated 10*1000;
	// after the error flips sign the output must leave saturation quickly.
	steps := 0
	for ; steps < 50; steps++ {
		if p.Update(-10, 1) < 1 {
			break
		}
	}
	if steps >= 50 {
		t.Error("integrator wound up: output stuck at saturation after error reversal")
	}
}

func TestPIDZeroDt(t *testing.T) {
	p := PID{Kp: 1, OutMin: -1, OutMax: 1}
	if out := p.Update(0.5, 0); out != 0.5 {
		t.Errorf("zero-dt update = %v, want proportional-only 0.5", out)
	}
}

func TestPIDReset(t *testing.T) {
	p := PID{Kp: 1, Ki: 1, OutMin: -10, OutMax: 10}
	p.Update(5, 1)
	p.Update(5, 1)
	p.Reset()
	if out := p.Update(0, 1); out != 0 {
		t.Errorf("after Reset, zero error gives %v, want 0", out)
	}
}
