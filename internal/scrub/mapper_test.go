package scrub

import (
	"testing"

	"reaper/internal/core"
	"reaper/internal/dram"
	"reaper/internal/ecc"
	"reaper/internal/mitigate"
)

func TestECCMemoryMapperFollowsRemap(t *testing.T) {
	st := newStation(t, 7)
	shield, err := mitigate.NewArchShield(st, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	mem, _ := NewECCMemory(st)
	mem.SetMapper(shield.Resolve)

	addr := mitigate.WordAddr{Bank: 2, Row: 4, Word: 8}
	if err := mem.Write(addr, 0xabad1dea); err != nil {
		t.Fatal(err)
	}

	// Remap the word out from under the ECC layer, migrate the data (the
	// system's job on a real remap), and verify reads follow the map.
	geom := st.Device().Geometry()
	bit := geom.BitIndex(dram.Addr{Bank: addr.Bank, Row: addr.Row, Word: addr.Word, Bit: 0})
	if err := shield.Install(core.NewFailureSet(bit)); err != nil {
		t.Fatal(err)
	}
	if shield.Resolve(addr) == addr {
		t.Fatal("word was not remapped")
	}
	if err := mem.Write(addr, 0xabad1dea); err != nil {
		t.Fatal(err)
	}
	val, status, err := mem.Read(addr)
	if err != nil {
		t.Fatal(err)
	}
	if val != 0xabad1dea || status != ecc.Clean {
		t.Fatalf("read through mapper = %#x status %v", val, status)
	}

	// The physical backing word in the spare segment holds the data.
	p := shield.Resolve(addr)
	got, err := st.ReadWord(p.Bank, p.Row, p.Word)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0xabad1dea {
		t.Fatalf("spare word = %#x, want data at resolved address", got)
	}
}

func TestScrubberReportListsUncorrectables(t *testing.T) {
	st := newStation(t, 8)
	mem, _ := NewECCMemory(st)
	scr, err := NewScrubber(mem)
	if err != nil {
		t.Fatal(err)
	}
	// Find a word with >= 2 true-cells failing at aggressive conditions and
	// stress it: SECDED decodes a double-bit error, which the report must
	// name.
	truth := core.Truth(st, 4.096, 45)
	geom := st.Device().Geometry()
	stable := map[uint64]bool{} // non-VRT true-cells: deterministic at long elapsed
	for _, c := range st.Device().Cells(st.Clock()) {
		stable[c.Bit] = c.ChargedVal == 1 && !c.VRT
	}
	perWord := map[mitigate.WordAddr]int{}
	for _, bit := range truth.Sorted() {
		if !stable[bit] {
			continue
		}
		a := geom.AddrOf(bit)
		perWord[mitigate.WordAddr{Bank: a.Bank, Row: a.Row, Word: a.Word}]++
	}
	var victim mitigate.WordAddr
	found := false
	for _, bit := range truth.Sorted() {
		a := geom.AddrOf(bit)
		wa := mitigate.WordAddr{Bank: a.Bank, Row: a.Row, Word: a.Word}
		if perWord[wa] >= 2 {
			victim, found = wa, true
			break
		}
	}
	if !found {
		t.Skip("no multi-cell word at this seed")
	}
	if err := mem.Write(victim, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	// With refresh paused, 30 s of leakage puts every truth cell far past
	// mu + 3.5 sigma under any data pattern: both cells fail with
	// probability 1, so the scrub decodes a double-bit error.
	st.DisableRefresh()
	st.Wait(30)
	rep, err := scr.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Uncorrectable == 0 {
		t.Fatal("no uncorrectable error on a word with two failed cells")
	}
	if len(rep.Uncorrectables) != rep.Uncorrectable {
		t.Fatalf("report lists %d addrs for %d UEs",
			len(rep.Uncorrectables), rep.Uncorrectable)
	}
	if rep.Uncorrectables[0] != victim {
		t.Fatalf("UE at %+v, want %+v", rep.Uncorrectables[0], victim)
	}
	if scr.Rounds != 1 {
		t.Fatalf("Rounds = %d after one pass", scr.Rounds)
	}
	if scr.UncorrectableTotal != rep.Uncorrectable {
		t.Fatalf("running UE total %d != the pass's %d", scr.UncorrectableTotal, rep.Uncorrectable)
	}
}
