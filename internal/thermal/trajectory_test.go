package thermal

import (
	"math"
	"testing"
)

// TestChamberTrajectoryPinned pins the chamber's float trajectory bit for
// bit from two seeds: the settle time to 45°C, the plant temperature there,
// and, after a step to 52°C, the plant, measured ambient and device
// temperatures at fixed control-loop steps. No golden, digest or soak
// report builds a chamber, so this is what holds the plant and PID
// arithmetic in place.
func TestChamberTrajectoryPinned(t *testing.T) {
	type sample struct {
		step                       int
		plant, ambient, deviceTemp uint64
	}
	cases := []struct {
		seed    uint64
		settleS float64
		plant   uint64
		after   []sample
	}{
		{1, 77, 0x404680249ccc0dee, []sample{
			{1, 0x4046b57955eac96e, 0x4046ab47af7b3be2, 0x404e3db06e942c0a},
			{10, 0x40486f2e6168b73a, 0x404865542bc85023, 0x404ff02e77cab1a6},
			{60, 0x404a02281d351972, 0x4049f6a9d5f74eaf, 0x4050c6bce6fe2c3b},
			{300, 0x404a02566cf2870a, 0x4049fb183b7ede54, 0x4050c5bdf5bf242d},
		}},
		{7 ^ 0xC4A3, 76, 0x40467e8d17ebc2d9, []sample{
			{1, 0x4046b3e89bc9f711, 0x4046ac7c913fd379, 0x404e2ee7391dc42d},
			{10, 0x40486dd5e840a18b, 0x404862796a78ae34, 0x404fe862a6d00417},
			{60, 0x4049ff841b8a3405, 0x4049fb4741ee94b5, 0x4050ba2444268cde},
			{300, 0x4049fd8ceccadb4f, 0x4049ff773ac013a2, 0x4050bd4d663d2b70},
		}},
	}
	for _, tc := range cases {
		c := NewChamber(tc.seed)
		elapsed, ok := c.SettleTo(45, 0.25, 7200)
		if !ok || elapsed != tc.settleS || math.Float64bits(c.ambient) != tc.plant {
			t.Fatalf("seed %#x: settled=%v in %v s at %#x, want %v s at %#x",
				tc.seed, ok, elapsed, math.Float64bits(c.ambient), tc.settleS, tc.plant)
		}
		c.SetTarget(52)
		step := 0
		for _, want := range tc.after {
			for ; step < want.step; step++ {
				c.Step(1)
			}
			got := sample{step, math.Float64bits(c.ambient), math.Float64bits(c.Ambient()), math.Float64bits(c.DeviceTemp())}
			if got != want {
				t.Errorf("seed %#x step %d: (plant, ambient, device) = (%#x, %#x, %#x), want (%#x, %#x, %#x)",
					tc.seed, step, got.plant, got.ambient, got.deviceTemp, want.plant, want.ambient, want.deviceTemp)
			}
		}
	}
}
