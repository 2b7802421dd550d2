package thermal

import (
	"math"
	"testing"
)

// Disturb kicks the chamber's true plant temperature by deltaC without
// moving the setpoint — the open-loop disturbance an Excursion's onset
// represents. Subsequent Step calls show the PID loop rejecting it.
func (c *Chamber) Disturb(deltaC float64) {
	c.ambient += deltaC
}

func TestExcursionWaveform(t *testing.T) {
	e := Excursion{StartSeconds: 100, PeakDeltaC: 10, TauSeconds: 600}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := e.DeltaAt(50); d != 0 {
		t.Fatalf("delta before onset = %v", d)
	}
	if d := e.DeltaAt(100); math.Abs(d-10) > 1e-12 {
		t.Fatalf("delta at onset = %v, want 10", d)
	}
	// One time constant later the offset has decayed to 1/e.
	if d := e.DeltaAt(700); math.Abs(d-10/math.E) > 1e-9 {
		t.Fatalf("delta after tau = %v, want %v", d, 10/math.E)
	}
	if e.Expired(100, 0.25) {
		t.Fatal("excursion expired at onset")
	}
	if !e.Expired(100+600*8, 0.25) {
		t.Fatal("excursion not expired after 8 tau")
	}
	if e.Expired(0, 0.25) {
		t.Fatal("excursion expired before onset")
	}
	if (Excursion{TauSeconds: 0}).Validate() == nil {
		t.Fatal("zero tau not rejected")
	}
}

func TestExcursionNegativeStep(t *testing.T) {
	e := Excursion{PeakDeltaC: -5, TauSeconds: 300}
	if d := e.DeltaAt(0); math.Abs(d+5) > 1e-12 {
		t.Fatalf("negative step delta = %v", d)
	}
	if !e.Expired(300*10, 0.25) {
		t.Fatal("negative excursion never expires")
	}
}

func TestChamberRejectsDisturbance(t *testing.T) {
	c := NewChamber(1)
	if _, ok := c.SettleTo(45, 0.25, 3600); !ok {
		t.Fatal("chamber never settled")
	}
	c.Disturb(8)
	if c.Settled(1) {
		t.Fatal("disturbance did not move the plant")
	}
	// The PID loop pulls the plant back within a few time constants.
	recovered := false
	for i := 0; i < 1200; i++ {
		c.Step(1)
		if c.Settled(0.25) {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatal("PID loop failed to reject an 8°C disturbance within 20 minutes")
	}
}
