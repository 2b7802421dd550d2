package mitigate

import (
	"slices"
	"testing"

	"reaper/internal/core"
	"reaper/internal/dram"
	"reaper/internal/memctrl"
)

// BinOf returns the refresh interval assigned to a row.
func (r *RAIDR) BinOf(bank, row int) float64 {
	return r.bins[r.rowBin[r.geom.GlobalRow(bank, row)]]
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

func TestWordAddrCompareIsAddressOrder(t *testing.T) {
	want := []WordAddr{{0, 0, 5}, {0, 1, 0}, {0, 7, 3}, {1, 0, 0}, {2, 0, 1}}
	got := slices.Clone(want)
	slices.Reverse(got)
	slices.SortFunc(got, WordAddr.Compare)
	if !slices.Equal(got, want) {
		t.Errorf("sorted %v, want bank, row, word order %v", got, want)
	}
	if c := (WordAddr{1, 2, 3}).Compare(WordAddr{1, 2, 3}); c != 0 {
		t.Errorf("equal addresses compare %d, want 0", c)
	}
}

func TestNewArchShieldValidation(t *testing.T) {
	st := newStation(t, 1)
	if _, err := NewArchShield(nil, 0.04); err == nil {
		t.Error("nil station not rejected")
	}
	if _, err := NewArchShield(st, 0); err == nil {
		t.Error("zero reserve not rejected")
	}
	if _, err := NewArchShield(st, 1); err == nil {
		t.Error("full reserve not rejected")
	}
}

func TestArchShieldReservedSegment(t *testing.T) {
	st := newStation(t, 2)
	a, err := NewArchShield(st, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.CapacityOverhead(); got < 0.03 || got > 0.06 {
		t.Errorf("capacity overhead = %v, want ~0.04", got)
	}
	geom := st.Device().Geometry()
	last := WordAddr{Bank: geom.Banks - 1, Row: geom.RowsPerBank - 1, Word: 0}
	if !a.InReservedSegment(last) {
		t.Error("top row should be reserved")
	}
	if a.InReservedSegment(WordAddr{}) {
		t.Error("first row should be visible")
	}
	if err := a.Write(last, 1); err == nil {
		t.Error("write into reserved segment not rejected")
	}
	if _, err := a.Read(last); err == nil {
		t.Error("read from reserved segment not rejected")
	}
}

func TestArchShieldRemapRedirects(t *testing.T) {
	st := newStation(t, 3)
	a, err := NewArchShield(st, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	geom := st.Device().Geometry()
	// Fabricate a failure in bank 0, row 1, word 2, bit 5.
	bit := geom.BitIndex(dram.Addr{Bank: 0, Row: 1, Word: 2, Bit: 5})
	if err := a.Install(core.NewFailureSet(bit)); err != nil {
		t.Fatal(err)
	}
	if a.RemappedWords() != 1 {
		t.Fatalf("remapped words = %d, want 1", a.RemappedWords())
	}
	addr := WordAddr{Bank: 0, Row: 1, Word: 2}
	if err := a.Write(addr, 0xabcdef); err != nil {
		t.Fatal(err)
	}
	got, err := a.Read(addr)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0xabcdef {
		t.Fatalf("read back %x", got)
	}
	// The physical (faulty) word must not have been written.
	raw, err := st.ReadWord(0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if raw == 0xabcdef {
		t.Error("write was not redirected away from the faulty word")
	}
}

func TestArchShieldIdempotentInstall(t *testing.T) {
	st := newStation(t, 4)
	a, _ := NewArchShield(st, 0.04)
	geom := st.Device().Geometry()
	bits := core.NewFailureSet(
		geom.BitIndex(dram.Addr{Bank: 0, Row: 0, Word: 0, Bit: 0}),
		geom.BitIndex(dram.Addr{Bank: 0, Row: 0, Word: 0, Bit: 7}), // same word
	)
	if err := a.Install(bits); err != nil {
		t.Fatal(err)
	}
	if a.RemappedWords() != 1 {
		t.Errorf("two failures in one word should remap once, got %d", a.RemappedWords())
	}
	before := a.SpareWordsLeft()
	if err := a.Install(bits); err != nil {
		t.Fatal(err)
	}
	if a.SpareWordsLeft() != before {
		t.Error("reinstall consumed spares")
	}
}

func TestArchShieldCapacityExhaustion(t *testing.T) {
	st := newStation(t, 5)
	// Tiny reserve: 1 row = 256 spare words.
	a, err := NewArchShield(st, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	geom := st.Device().Geometry()
	fails := core.NewFailureSet()
	for i := 0; i < 300; i++ { // more faulty words than spares
		fails.Add(geom.BitIndex(dram.Addr{Bank: 0, Row: i / 250, Word: i % 250, Bit: 0}))
	}
	if err := a.Install(fails); err == nil {
		t.Error("spare exhaustion not reported")
	}
}

func TestArchShieldEndToEndWithREAPER(t *testing.T) {
	// The paper's Section 7.1.1 flow: reach-profile the chip, install the
	// failures into ArchShield, run at the extended refresh interval, and
	// verify data integrity — while the unprotected device corrupts.
	const target = 1.024
	st := newStation(t, 6)
	prof, err := core.Reach(st, target, core.ReachConditions{DeltaInterval: 0.5},
		core.Options{Iterations: 16, FreshRandomPerIteration: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Failures.Len() == 0 {
		t.Fatal("profile found nothing")
	}

	shield, err := NewArchShield(st, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if err := shield.Install(prof.Failures); err != nil {
		t.Fatal(err)
	}

	// Words that contain true failing cells at the target conditions.
	truth := core.Truth(st, target, 45)
	geom := st.Device().Geometry()
	var victims []WordAddr
	seen := map[WordAddr]bool{}
	for _, bit := range truth.Sorted() {
		a := geom.AddrOf(bit)
		wa := WordAddr{Bank: a.Bank, Row: a.Row, Word: a.Word}
		if !seen[wa] && !shield.InReservedSegment(wa) {
			seen[wa] = true
			victims = append(victims, wa)
		}
		if len(victims) >= 60 {
			break
		}
	}
	if len(victims) < 10 {
		t.Fatalf("too few victim words: %d", len(victims))
	}

	// Operate at the extended interval.
	st.SetRefreshInterval(target)
	for i, wa := range victims {
		if err := shield.Write(wa, 0x1111111111111111*uint64(i%15+1)); err != nil {
			t.Fatal(err)
		}
	}
	st.Wait(600) // ten minutes at the extended refresh interval
	corrupted := 0
	for i, wa := range victims {
		got, err := shield.Read(wa)
		if err != nil {
			t.Fatal(err)
		}
		if got != 0x1111111111111111*uint64(i%15+1) {
			corrupted++
		}
	}
	if corrupted != 0 {
		t.Errorf("%d/%d shielded words corrupted at %vs refresh", corrupted, len(victims), target)
	}

	// Control: the same experiment without the shield must corrupt.
	st2 := newStation(t, 6)
	st2.SetRefreshInterval(target)
	for i, wa := range victims {
		if err := st2.WriteWord(wa.Bank, wa.Row, wa.Word, 0x1111111111111111*uint64(i%15+1)); err != nil {
			t.Fatal(err)
		}
	}
	st2.Wait(600)
	rawCorrupted := 0
	for i, wa := range victims {
		got, err := st2.ReadWord(wa.Bank, wa.Row, wa.Word)
		if err != nil {
			t.Fatal(err)
		}
		if got != 0x1111111111111111*uint64(i%15+1) {
			rawCorrupted++
		}
	}
	if rawCorrupted == 0 {
		t.Error("unprotected device did not corrupt at the extended interval; experiment vacuous")
	}
}

func TestRAIDRValidation(t *testing.T) {
	geom := dram.Geometry{Banks: 2, RowsPerBank: 16, WordsPerRow: 4}
	if _, err := NewRAIDR(geom, []float64{0.064}); err == nil {
		t.Error("single bin not rejected")
	}
	if _, err := NewRAIDR(geom, []float64{0.128, 0.064}); err == nil {
		t.Error("descending bins not rejected")
	}
	if _, err := NewRAIDR(geom, []float64{0, 0.064}); err == nil {
		t.Error("zero bin not rejected")
	}
	if _, err := NewRAIDR(dram.Geometry{}, []float64{0.064, 0.128}); err == nil {
		t.Error("bad geometry not rejected")
	}
}

func TestRAIDRAssignAndSavings(t *testing.T) {
	geom := dram.Geometry{Banks: 1, RowsPerBank: 8, WordsPerRow: 4}
	r, err := NewRAIDR(geom, []float64{0.064, 0.128, 0.256})
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 fails at 128ms (must stay at 64ms), row 1 fails only at 256ms
	// (can run at 128ms), the rest are clean (256ms).
	failAt128 := core.NewFailureSet(geom.BitIndex(dram.Addr{Row: 0}))
	failAt256 := core.NewFailureSet(
		geom.BitIndex(dram.Addr{Row: 0}),
		geom.BitIndex(dram.Addr{Row: 1}),
	)
	err = r.Assign(func(t float64) *core.FailureSet {
		if t == 0.128 {
			return failAt128
		}
		return failAt256
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.BinOf(0, 0); got != 0.064 {
		t.Errorf("row 0 bin = %v, want 0.064", got)
	}
	if got := r.BinOf(0, 1); got != 0.128 {
		t.Errorf("row 1 bin = %v, want 0.128", got)
	}
	if got := r.BinOf(0, 2); got != 0.256 {
		t.Errorf("row 2 bin = %v, want 0.256", got)
	}
	counts := r.BinCounts()
	if counts[0] != 1 || counts[1] != 1 || counts[2] != 6 {
		t.Errorf("bin counts = %v", counts)
	}
	savings := r.Savings(0.064)
	// ops = 1/0.064 + 1/0.128 + 6/0.256 = 15.625+7.8125+23.4375 = 46.875
	// baseline = 8/0.064 = 125 -> savings = 0.625.
	if savings < 0.62 || savings > 0.63 {
		t.Errorf("savings = %v, want 0.625", savings)
	}
	if r.Assign(nil) == nil {
		t.Error("nil profile source not rejected")
	}
}

func TestRAIDRWithRealProfiles(t *testing.T) {
	st := newStation(t, 7)
	geom := st.Device().Geometry()
	bins := []float64{0.064, 0.512, 1.024, 2.048}
	r, err := NewRAIDR(geom, bins)
	if err != nil {
		t.Fatal(err)
	}
	profiles := make(map[float64]*core.FailureSet)
	for _, b := range bins[1:] {
		res, err := core.Reach(st, b, core.ReachConditions{DeltaInterval: 0.25},
			core.Options{Iterations: 8, FreshRandomPerIteration: true, Seed: uint64(b * 1000)})
		if err != nil {
			t.Fatal(err)
		}
		profiles[b] = res.Failures
	}
	if err := r.Assign(func(t float64) *core.FailureSet { return profiles[t] }); err != nil {
		t.Fatal(err)
	}
	savings := r.Savings(0.064)
	// Most rows hold no weak cell at 2048ms, so savings should be large
	// (RAIDR's premise).
	if savings < 0.5 {
		t.Errorf("RAIDR savings = %v, want > 0.5", savings)
	}
	counts := r.BinCounts()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != geom.TotalRows() {
		t.Errorf("bin counts sum %d != rows %d", total, geom.TotalRows())
	}
}
