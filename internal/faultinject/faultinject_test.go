package faultinject

import (
	"math"
	"reflect"
	"testing"

	"reaper/internal/checkpoint"
	"reaper/internal/dram"
	"reaper/internal/memctrl"
	"reaper/internal/mitigate"
	"reaper/internal/thermal"
)

// RunFor advances the station clock by seconds, firing every fault whose
// time falls inside the window (in clock order, ties broken by channel
// index). The station ends exactly seconds later.
func (inj *Injector) RunFor(seconds float64) {
	inj.RunUntil(inj.st.Clock() + seconds)
}

func newStation(t testing.TB, seed uint64) *memctrl.Station {
	t.Helper()
	dev, err := dram.NewDevice(dram.Config{
		Geometry:  dram.Geometry{Banks: 8, RowsPerBank: 64, WordsPerRow: 256},
		Vendor:    dram.VendorB(),
		Seed:      seed,
		WeakScale: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := memctrl.NewStation(nil, dev)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestScenarioValidation(t *testing.T) {
	st := newStation(t, 1)
	bad := []Scenario{
		{Seed: 1, VRTBurstMeanHours: -1},
		{Seed: 1, RoundAbortProb: 1},
		{Seed: 1, TargetedArrivalFraction: 2},
		{Seed: 1, TempExcursionMeanHours: 1}, // missing tau
	}
	for i, sc := range bad {
		if _, err := New(st, 1.024, sc); err == nil {
			t.Errorf("scenario %d not rejected", i)
		}
	}
	if _, err := New(nil, 1.024, DefaultScenario(1)); err == nil {
		t.Error("nil station not rejected")
	}
	if _, err := New(st, 0, DefaultScenario(1)); err == nil {
		t.Error("zero target not rejected")
	}
}

func TestAllChannelsFireUnderDefaultScenario(t *testing.T) {
	st := newStation(t, 2)
	sc := DefaultScenario(7)
	sc.SpareDrainMeanHours = 24
	sc.SpareDrainWords = 8
	inj, err := New(st, 1.024, sc)
	if err != nil {
		t.Fatal(err)
	}
	shield, err := mitigate.NewArchShield(st, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	inj.AttachShield(shield)
	before := shield.SpareWordsLeft()
	weakBefore := st.Device().WeakCellCount()

	inj.RunFor(14 * 24 * 3600) // two simulated weeks
	counts := inj.Counts()
	for _, kind := range []string{"vrt-burst", "dpd-flip", "temp-excursion", "temp-restore",
		"weak-arrival", "spare-drain"} {
		if counts[kind] == 0 {
			t.Errorf("channel %q never fired in two weeks: %v", kind, counts)
		}
	}
	if st.Device().WeakCellCount() <= weakBefore {
		t.Error("no weak cells arrived over two weeks")
	}
	if shield.SpareWordsLeft() >= before {
		t.Error("spare drain consumed nothing")
	}
	// The excursions must have decayed away: ambient back at base.
	if amb := st.Ambient(); math.Abs(amb-45) > 0.2 {
		t.Errorf("ambient = %v after soak, want ~45 (excursion not restored)", amb)
	}
	// Targeted arrivals land in the reserved segment.
	g := st.Device().Geometry()
	inSpare := 0
	for _, c := range st.Device().Cells(0) {
		a := g.AddrOf(c.Bit)
		if shield.InReservedSegment(mitigate.WordAddr{Bank: a.Bank, Row: a.Row, Word: a.Word}) {
			inSpare++
		}
	}
	if inSpare == 0 {
		t.Error("no weak cells in the reserved segment despite targeted arrivals")
	}
}

func TestExcursionRaisesAndRestoresAmbient(t *testing.T) {
	st := newStation(t, 3)
	sc := Scenario{
		Seed:                    5,
		TempExcursionMeanHours:  2,
		TempExcursionPeakC:      10,
		TempExcursionTauSeconds: 1800,
	}
	inj, err := New(st, 1.024, sc)
	if err != nil {
		t.Fatal(err)
	}
	base := st.Ambient()
	sawHot := false
	for i := 0; i < 48; i++ {
		inj.RunFor(900)
		if st.Ambient() > base+2 {
			sawHot = true
		}
	}
	if !sawHot {
		t.Error("ambient never rose during excursion windows")
	}
}

func TestRoundGateAbortsAtConfiguredRate(t *testing.T) {
	st := newStation(t, 4)
	sc := Scenario{Seed: 9, RoundAbortProb: 0.3}
	inj, err := New(st, 1.024, sc)
	if err != nil {
		t.Fatal(err)
	}
	gate := inj.RoundGate()
	aborts := 0
	for i := 0; i < 1000; i++ {
		if gate() != nil {
			aborts++
		}
	}
	if aborts < 250 || aborts > 350 {
		t.Errorf("aborts = %d/1000 at p=0.3, want ~300", aborts)
	}
	if inj.Counts()["round-abort"] != aborts {
		t.Error("abort events not logged")
	}
}

// TestInjectorDeterministicAcrossStationUse is the regression the package
// exists for: the injector's fault sequence depends only on the scenario
// seed, not on how much the station's own RNG was exercised in between.
func TestInjectorDeterministicAcrossStationUse(t *testing.T) {
	run := func(extraLoad bool) ([]Event, []dram.CellInfo) {
		st := newStation(t, 6)
		inj, err := New(st, 1.024, DefaultScenario(11))
		if err != nil {
			t.Fatal(err)
		}
		for day := 0; day < 3; day++ {
			inj.RunFor(24 * 3600)
			if extraLoad {
				// Reads consume station-RNG draws for marginal cells;
				// they must not shift any injected fault.
				st.ReadCompare()
			}
		}
		return inj.Events(), st.Device().Cells(0)
	}
	ev1, _ := run(false)
	ev2, cells2 := run(true)
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("event logs differ with station load:\n%v\nvs\n%v", ev1, ev2)
	}
	// And a replay with the same load is bit-identical including the
	// injected weak-cell population.
	ev3, cells3 := run(true)
	if !reflect.DeepEqual(ev2, ev3) {
		t.Fatal("event log not reproducible")
	}
	if !reflect.DeepEqual(cells2, cells3) {
		t.Fatal("weak-cell population not reproducible")
	}
}

// TestRestoreRejectsBadExcursion: a checkpoint whose in-flight temperature
// excursion has a non-positive time constant is refused on restore, as a
// scenario with one is refused on construction.
func TestRestoreRejectsBadExcursion(t *testing.T) {
	inj, err := New(newStation(t, 6), 1.024, DefaultScenario(11))
	if err != nil {
		t.Fatal(err)
	}
	inj.excursion = &thermal.Excursion{StartSeconds: 1, PeakDeltaC: 8, TauSeconds: 0}
	e := checkpoint.NewEncoder()
	inj.EncodeState(e)
	fresh, err := New(newStation(t, 6), 1.024, DefaultScenario(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreState(checkpoint.NewDecoder(e.Data())); err == nil {
		t.Fatal("restore accepted an excursion with a zero time constant")
	}
}
