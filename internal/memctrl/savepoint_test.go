package memctrl

import (
	"slices"
	"testing"

	"reaper/internal/patterns"
)

// profilePasses runs Algorithm 1 passes on st and returns their fails.
func profilePasses(st *Station) [][]uint64 {
	var out [][]uint64
	for i, p := range []patterns.Pattern{patterns.Solid1(), patterns.Checkerboard(), patterns.Random(3)} {
		st.WritePattern(p)
		st.DisableRefresh()
		st.Wait(1.024 * float64(i+1))
		st.EnableRefresh()
		out = append(out, st.ReadCompare())
	}
	return out
}

// TestStationRollbackMatchesFresh: a station rolled back to its savepoint
// repeats a profiling run exactly as a freshly built station does — same
// fails, clock, refresh flag and time accounting.
func TestStationRollbackMatchesFresh(t *testing.T) {
	st := testStation(t, false)
	sp, err := st.Savepoint()
	if err != nil {
		t.Fatal(err)
	}
	st.SetAmbient(60)
	profilePasses(st)
	st.DisableRefresh()
	if err := st.Rollback(sp); err != nil {
		t.Fatal(err)
	}
	fresh := testStation(t, false)
	got, want := profilePasses(st), profilePasses(fresh)
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("pass %d: %d fails vs fresh %d", i, len(got[i]), len(want[i]))
		}
	}
	if st.Clock() != fresh.Clock() || st.Stats() != fresh.Stats() || st.RefreshEnabled() != fresh.RefreshEnabled() ||
		st.Ambient() != fresh.Ambient() {
		t.Fatalf("rolled-back station state diverges: clock %v/%v stats %+v/%+v",
			st.Clock(), fresh.Clock(), st.Stats(), fresh.Stats())
	}
}

// TestStationSavepointRefusals: chamber stations and traced stations are
// refused, since their extra state is not captured.
func TestStationSavepointRefusals(t *testing.T) {
	if _, err := testStation(t, true).Savepoint(); err == nil {
		t.Error("savepoint of a chamber station accepted")
	}
	traced := testStation(t, false)
	traced.AttachTrace(NewTrace(16))
	if _, err := traced.Savepoint(); err == nil {
		t.Error("savepoint of a traced station accepted")
	}
	st := testStation(t, false)
	sp, err := st.Savepoint()
	if err != nil {
		t.Fatal(err)
	}
	st.AttachTrace(NewTrace(16))
	if err := st.Rollback(sp); err == nil {
		t.Error("rollback of a station traced after its savepoint accepted")
	}
}
