package experiments

import (
	"context"
	"slices"
	"testing"

	"reaper/internal/dram"
	"reaper/internal/memctrl"
	"reaper/internal/mitigate"
)

// The three functions below are reference implementations of the resident
// set: they map every weak cell of the chip to its word and sort every word
// address. TestResidentSetMatchesReference compares them to the production
// path, which reads one word's cells through the device's row offsets and
// groups the bit-ordered cells in one pass.

// cellsByPhysicalWord groups the device's current weak cells by the word
// that physically contains them.
func cellsByPhysicalWord(st *memctrl.Station) map[mitigate.WordAddr][]dram.CellInfo {
	g := st.Device().Geometry()
	out := map[mitigate.WordAddr][]dram.CellInfo{}
	for _, c := range st.Device().Cells(st.Clock()) {
		a := g.AddrOf(c.Bit)
		wa := mitigate.WordAddr{Bank: a.Bank, Row: a.Row, Word: a.Word}
		out[wa] = append(out[wa], c)
	}
	return out
}

// referenceStressPayload is stressPayload built cell by cell.
func referenceStressPayload(wa mitigate.WordAddr, cells []dram.CellInfo) uint64 {
	h := uint64(wa.Bank)<<40 ^ uint64(wa.Row)<<20 ^ uint64(wa.Word)
	h *= 0x9e3779b97f4a7c15
	val := 0xa5a5a5a5a5a5a5a5 ^ h
	for _, c := range cells {
		bit := c.Bit % 64
		if c.ChargedVal == 1 {
			val |= 1 << bit
		} else {
			val &^= 1 << bit
		}
	}
	return val
}

// referenceSelectResidentWords is selectResidentWords over a map of every
// word holding a weak cell and a sort of all of their addresses.
func referenceSelectResidentWords(st *memctrl.Station, shield *mitigate.ArchShield, target float64, limit int) []mitigate.WordAddr {
	g := st.Device().Geometry()
	type wordClass struct{ vrt, marginal, failing int }
	classes := map[mitigate.WordAddr]*wordClass{}
	for _, c := range st.Device().Cells(st.Clock()) {
		a := g.AddrOf(c.Bit)
		wa := mitigate.WordAddr{Bank: a.Bank, Row: a.Row, Word: a.Word}
		if shield.InReservedSegment(wa) {
			continue
		}
		cl := classes[wa]
		if cl == nil {
			cl = &wordClass{}
			classes[wa] = cl
		}
		switch {
		case c.VRT:
			cl.vrt++
		case c.Mu <= target*1.25:
			cl.failing++
		case c.Mu <= target*2:
			cl.marginal++
		}
	}
	addrs := make([]mitigate.WordAddr, 0, len(classes))
	for wa := range classes {
		addrs = append(addrs, wa)
	}
	slices.SortFunc(addrs, mitigate.WordAddr.Compare)
	pick := func(keep func(*wordClass) bool, quota int, out []mitigate.WordAddr) []mitigate.WordAddr {
		for _, wa := range addrs {
			if quota <= 0 || len(out) >= limit {
				break
			}
			if keep(classes[wa]) && !containsAddr(out, wa) {
				out = append(out, wa)
				quota--
			}
		}
		return out
	}
	var out []mitigate.WordAddr
	out = pick(func(c *wordClass) bool { return c.failing > 0 }, limit/2, out)
	out = pick(func(c *wordClass) bool { return c.vrt > 0 }, limit/4, out)
	out = pick(func(c *wordClass) bool { return c.marginal >= 2 }, limit-len(out), out)
	slices.SortFunc(out, mitigate.WordAddr.Compare)
	return out
}

// TestResidentSetMatchesReference runs soak chips until ArchShield has
// remapped words into the spare segment and the injector has added weak
// cells, then requires the one-pass resident selection and the row-offset
// payload to equal the reference implementations, for every resident word
// including those Resolve sends to the spare segment.
func TestResidentSetMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		cfg := DefaultSoakConfig(seed)
		if err := cfg.fillDefaults(); err != nil {
			t.Fatal(err)
		}
		r, err := restoreSoakRunner(cfg, 0, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		constructed := r.st.Device().WeakCellCount()
		for r.shield.RemappedWords() == 0 || r.st.Device().WeakCellCount() == constructed {
			if err := r.runWindows(context.Background(), 24); err != nil {
				t.Fatal(err)
			} else if r.done() {
				t.Fatalf("seed %d: horizon reached with %d remapped words and %d injected cells",
					seed, r.shield.RemappedWords(), r.st.Device().WeakCellCount()-constructed)
			}
		}

		// The soak's own limit fills its quotas long before the reserved
		// segment at the top of the address space; an unbounded limit
		// selects every qualifying word.
		for _, limit := range []int{soakResidentWords, 1 << 20} {
			got := selectResidentWords(r.st, r.shield, cfg.TargetInterval, limit)
			want := referenceSelectResidentWords(r.st, r.shield, cfg.TargetInterval, limit)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d limit %d: the selection of %d words differs from the reference's %d",
					seed, limit, len(got), len(want))
			}
		}
		got := selectResidentWords(r.st, r.shield, cfg.TargetInterval, soakResidentWords)

		cells := cellsByPhysicalWord(r.st)
		spare := 0
		for _, wa := range append(got, r.resident...) {
			p := r.shield.Resolve(wa)
			if p != wa {
				spare++
			}
			weak, charged := r.st.Device().WeakBits(p.Bank, p.Row, p.Word)
			if g, w := stressPayload(wa, weak, charged), referenceStressPayload(wa, cells[p]); g != w {
				t.Fatalf("seed %d word %+v (physical %+v): payload %#x, reference %#x", seed, wa, p, g, w)
			}
		}
		if spare == 0 {
			t.Fatalf("seed %d: no resident word resolves to the spare segment", seed)
		}
	}
}
