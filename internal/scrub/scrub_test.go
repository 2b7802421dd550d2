package scrub

import (
	"testing"

	"reaper/internal/core"
	"reaper/internal/dram"
	"reaper/internal/ecc"
	"reaper/internal/memctrl"
	"reaper/internal/mitigate"
)

// Profile returns the set of word base addresses (as bit indices) the
// scrubber has observed failing. Note the granularity difference from
// active profiling: the scrubber sees words, not cells, and only under the
// stored data.
func (s *Scrubber) Profile() *core.FailureSet { return s.profile.Clone() }

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

func TestECCMemoryValidation(t *testing.T) {
	if _, err := NewECCMemory(nil); err == nil {
		t.Error("nil station not rejected")
	}
	mem, err := NewECCMemory(newStation(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewScrubber(nil); err == nil {
		t.Error("nil memory not rejected")
	}
	if _, _, err := mem.Read(mitigate.WordAddr{Bank: 0, Row: 0, Word: 0}); err == nil {
		t.Error("read of never-written word not rejected")
	}
}

func TestECCMemoryRoundTrip(t *testing.T) {
	mem, _ := NewECCMemory(newStation(t, 2))
	addr := mitigate.WordAddr{Bank: 1, Row: 2, Word: 3}
	if err := mem.Write(addr, 0xfeedfacecafebeef); err != nil {
		t.Fatal(err)
	}
	val, status, err := mem.Read(addr)
	if err != nil {
		t.Fatal(err)
	}
	if val != 0xfeedfacecafebeef || status != ecc.Clean {
		t.Fatalf("read %x status %v", val, status)
	}
	if n := len(mem.Written()); n != 1 {
		t.Errorf("Written = %d, want 1", n)
	}
}

func TestECCMemoryCorrectsRetentionFlip(t *testing.T) {
	st := newStation(t, 3)
	mem, _ := NewECCMemory(st)
	// Find a word containing exactly one strong-probability failing cell.
	truth := core.Truth(st, 2.048, 45)
	geom := st.Device().Geometry()
	perWord := map[mitigate.WordAddr]int{}
	for _, bit := range truth.Sorted() {
		a := geom.AddrOf(bit)
		perWord[mitigate.WordAddr{Bank: a.Bank, Row: a.Row, Word: a.Word}]++
	}
	// Deterministically pick the first single-cell word whose cell is a
	// true-cell (charged value 1), so storing all-ones stresses it.
	chargedOf := map[uint64]uint8{}
	for _, c := range st.Device().Cells(st.Clock()) {
		chargedOf[c.Bit] = c.ChargedVal
	}
	var victim mitigate.WordAddr
	found := false
	for _, bit := range truth.Sorted() {
		a := geom.AddrOf(bit)
		wa := mitigate.WordAddr{Bank: a.Bank, Row: a.Row, Word: a.Word}
		if perWord[wa] == 1 && chargedOf[bit] == 1 {
			victim, found = wa, true
			break
		}
	}
	if !found {
		t.Skip("no single-cell word available")
	}
	st.SetRefreshInterval(2.048)
	if err := mem.Write(victim, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	// Let the cell fail (repeated extended-refresh cycles make it nearly
	// certain), then read through ECC: it must correct.
	st.Wait(300)
	sawCorrection := false
	for i := 0; i < 20 && !sawCorrection; i++ {
		_, status, err := mem.Read(victim)
		if err != nil {
			t.Fatal(err)
		}
		if status == ecc.Corrected {
			sawCorrection = true
		}
		st.Wait(60)
	}
	if !sawCorrection {
		t.Error("no corrected read observed on a failing word")
	}
}

func TestScrubberFindsAndRepairsFailures(t *testing.T) {
	st := newStation(t, 4)
	mem, _ := NewECCMemory(st)
	scr, err := NewScrubber(mem)
	if err != nil {
		t.Fatal(err)
	}
	// Protect a spread of words that contain true failing cells.
	truth := core.Truth(st, 2.048, 45)
	geom := st.Device().Geometry()
	n := 0
	for _, bit := range truth.Sorted() {
		a := geom.AddrOf(bit)
		wa := mitigate.WordAddr{Bank: a.Bank, Row: a.Row, Word: a.Word}
		if err := mem.Write(wa, 0xAAAAAAAAAAAAAAAA); err != nil {
			t.Fatal(err)
		}
		n++
		if n >= 150 {
			break
		}
	}
	st.SetRefreshInterval(2.048)
	st.Wait(600)
	rep, err := scr.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.WordsScanned != n {
		t.Errorf("scanned %d, want %d", rep.WordsScanned, n)
	}
	if rep.Corrected == 0 {
		t.Error("scrub corrected nothing despite extended-interval operation")
	}
	if scr.Profile().Len() == 0 {
		t.Error("scrubber accumulated no profile")
	}
	if scr.Rounds != 1 {
		t.Errorf("rounds = %d", scr.Rounds)
	}
	// A second immediate scrub should find (almost) everything repaired:
	// strictly fewer corrections than the first pass.
	rep2, err := scr.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Corrected >= rep.Corrected {
		t.Errorf("repairs did not take: %d then %d corrections", rep.Corrected, rep2.Corrected)
	}
}

func TestScrubberIsPassiveMissesDPDFailures(t *testing.T) {
	// The paper's Section 3.2 criticism, made concrete: under benign data
	// the scrubber sees few failures; an active (reach) profile of the
	// same chip at the same target finds far more possible failing cells,
	// because it deliberately tests many patterns.
	st := newStation(t, 5)
	mem, _ := NewECCMemory(st)
	scr, _ := NewScrubber(mem)

	truth := core.Truth(st, 2.048, 45)
	geom := st.Device().Geometry()
	// Protect the words of every truth cell with data equal to each
	// cell's DISCHARGED value: leakage cannot corrupt them, modelling a
	// benign resident data pattern.
	cells := st.Device().Cells(st.Clock())
	chargedOf := map[uint64]uint8{}
	for _, c := range cells {
		chargedOf[c.Bit] = c.ChargedVal
	}
	for _, bit := range truth.Sorted() {
		a := geom.AddrOf(bit)
		wa := mitigate.WordAddr{Bank: a.Bank, Row: a.Row, Word: a.Word}
		var val uint64
		if chargedOf[bit] == 0 {
			// Anti-cell: store 1 so it holds its charged... inverse:
			// store the value that does NOT stress it (charged=0 means
			// storing 0 can decay; store 1).
			val = ^uint64(0)
		} else {
			val = 0
		}
		if err := mem.Write(wa, val); err != nil {
			t.Fatal(err)
		}
	}
	st.SetRefreshInterval(2.048)
	// A day of operation with hourly scrubs under benign data.
	for h := 0; h < 24; h++ {
		st.Wait(3600)
		if _, err := scr.Scrub(); err != nil {
			t.Fatal(err)
		}
	}
	passiveCoverage := scr.WordCoverage(truth, st)

	// Active profiling on an identical chip.
	st2 := newStation(t, 5)
	prof, err := core.Reach(st2, 2.048, core.ReachConditions{DeltaInterval: 0.25},
		core.Options{Iterations: 16, FreshRandomPerIteration: true})
	if err != nil {
		t.Fatal(err)
	}
	activeCoverage := core.Coverage(prof.Failures, core.Truth(st2, 2.048, 45))

	if passiveCoverage > 0.3 {
		t.Errorf("passive scrubbing coverage under benign data = %v; should be low", passiveCoverage)
	}
	if activeCoverage < 0.9 {
		t.Errorf("active profiling coverage = %v; should be high", activeCoverage)
	}
	if activeCoverage <= passiveCoverage {
		t.Error("active profiling did not beat passive scrubbing")
	}
}

func TestScrubberUncorrectableDoubleErrors(t *testing.T) {
	// Words containing two failing cells defeat SECDED when both flip
	// between scrubs — the failure mode active profiling avoids by
	// remapping such words in advance.
	st := newStation(t, 6)
	mem, _ := NewECCMemory(st)
	scr, _ := NewScrubber(mem)
	truth := core.Truth(st, 4.096, 45)
	geom := st.Device().Geometry()
	perWord := map[mitigate.WordAddr][]uint64{}
	for _, bit := range truth.Sorted() {
		a := geom.AddrOf(bit)
		wa := mitigate.WordAddr{Bank: a.Bank, Row: a.Row, Word: a.Word}
		perWord[wa] = append(perWord[wa], bit)
	}
	cells := st.Device().Cells(st.Clock())
	chargedOf := map[uint64]uint8{}
	for _, c := range cells {
		chargedOf[c.Bit] = c.ChargedVal
	}
	protected := 0
	for wa, bits := range perWord {
		if len(bits) < 2 {
			continue
		}
		// Store data that stresses every failing cell in the word.
		var val uint64
		for _, bit := range bits {
			a := geom.AddrOf(bit)
			if chargedOf[bit] == 1 {
				val |= 1 << uint(a.Bit)
			}
		}
		if err := mem.Write(wa, val); err != nil {
			t.Fatal(err)
		}
		protected++
	}
	if protected == 0 {
		t.Skip("no multi-cell words on this chip")
	}
	st.SetRefreshInterval(4.096)
	st.Wait(1800)
	rep, err := scr.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Uncorrectable == 0 {
		t.Errorf("no uncorrectable errors among %d double-cell words after 30min at 4096ms", protected)
	}
	if scr.UncorrectableTotal != rep.Uncorrectable {
		t.Error("uncorrectable totals inconsistent")
	}
}

func TestWordCoverageEmptyTruth(t *testing.T) {
	st := newStation(t, 7)
	mem, _ := NewECCMemory(st)
	scr, _ := NewScrubber(mem)
	if got := scr.WordCoverage(core.NewFailureSet(), st); got != 1 {
		t.Errorf("empty truth coverage = %v, want 1", got)
	}
}
