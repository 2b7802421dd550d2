package reaper

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// profileDigest hashes a reach profile and its ground truth bit for bit:
// the failing cells, every pass record, the time accounting, and the
// station's clock and ambient afterwards.
func profileDigest(res *Result, truth *FailureSet, clock, ambient float64) string {
	h := sha256.New()
	var b [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	for _, set := range []*FailureSet{res.Failures, truth} {
		bits := set.Sorted()
		u(uint64(len(bits)))
		for _, bit := range bits {
			u(bit)
		}
	}
	for _, r := range res.Records {
		u(uint64(r.Iteration))
		h.Write([]byte(r.PatternName))
		u(uint64(r.Failures))
		u(uint64(r.NewFailures))
		f(r.ClockSeconds)
	}
	s := res.Stats
	f(s.WriteSeconds)
	f(s.ReadSeconds)
	f(s.WaitSeconds)
	f(s.IdleSeconds)
	u(uint64(s.WritePasses))
	u(uint64(s.ReadPasses))
	u(uint64(s.BytesWritten))
	u(uint64(s.BytesRead))
	f(res.ProfilingInterval)
	f(res.ProfilingTempC)
	u(uint64(res.Iterations))
	f(clock)
	f(ambient)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestStationProfilePinned pins a reach profile plus its ground truth on
// one chip and on a three-chip module, each with and without the thermal
// chamber. A one-chip module must give the one-chip station's digest: they
// are the same controller over the same chip.
func TestStationProfilePinned(t *testing.T) {
	const target = 1.024
	run := func(t *testing.T, st *Station) string {
		t.Helper()
		res, err := Profile(st, target, ReachConditions{DeltaInterval: 0.25, DeltaTempC: 5},
			Options{Iterations: 3, FreshRandomPerIteration: true, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		truth := Truth(st, target, RefTempC)
		if err := st.Err(); err != nil {
			t.Fatal(err)
		}
		if res.Failures.Len() == 0 || truth.Len() == 0 {
			t.Fatalf("%d failures found, %d true: the pin sees nothing", res.Failures.Len(), truth.Len())
		}
		return profileDigest(res, truth, st.Clock(), st.Ambient())
	}
	for _, tc := range []struct {
		chamber bool
		one     string // NewStation and NewModule(1, ...)
		three   string // NewModule(3, ...)
	}{
		{false, "a5c41c6b5b1abd4d", "23ab12734c5a99cc"},
		{true, "a3ab645c3c05f066", "4d7f9a203194ce99"},
	} {
		cfg := ChipConfig{CapacityBits: 8 << 20, Seed: 5, WithThermalChamber: tc.chamber}
		st, err := NewStation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		station := run(t, st)
		for _, chips := range []int{1, 3} {
			m, err := NewModule(chips, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := run(t, m)
			want := tc.three
			if chips == 1 {
				want = tc.one
				if got != station {
					t.Errorf("chamber=%v: one-chip module digest %s, station %s", tc.chamber, got, station)
				}
			}
			if got != want {
				t.Errorf("chamber=%v chips=%d: digest %s, want %s", tc.chamber, chips, got, want)
			}
		}
		if station != tc.one {
			t.Errorf("chamber=%v: station digest %s, want %s", tc.chamber, station, tc.one)
		}
	}
}
