package dram

import (
	"bytes"
	"testing"

	"reaper/internal/patterns"
	"reaper/internal/rng"
)

// TestReadWordOutOfRangeLeavesDeviceUnchanged pins the order of ReadWord's
// checks: a bad word index fails before the row is activated, so no cell is
// sampled, no row record is created and no restore time moves.
func TestReadWordOutOfRangeLeavesDeviceUnchanged(t *testing.T) {
	d := testDevice(t, 12, nil)
	d.WriteAll(patterns.Checkerboard(), 0)
	before := encodeDelta(t, d)
	for _, word := range []int{-1, d.Geometry().WordsPerRow} {
		if _, err := d.ReadWord(0, 3, word, 5); err == nil {
			t.Fatalf("word %d: no error", word)
		}
		if !bytes.Equal(encodeDelta(t, d), before) {
			t.Fatalf("word %d: the failed read changed the device", word)
		}
	}
}

// TestReadWordMatchesReadRow drives twin devices through one script of bulk
// writes, deviant rows, word overrides, long waits, auto-refresh and
// injections. At every read one twin calls ReadWord and the other takes the
// word out of ReadRow, the full-row oracle: the values must agree, and so
// must the twins' state afterwards (cells, stuck overlay, streams, counters
// and EncodeDelta bytes).
func TestReadWordMatchesReadRow(t *testing.T) {
	cfg := deltaTestConfig()
	a, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := a.Geometry()
	ops := rng.New(0x4EAD)
	now := 0.0
	flipped := 0
	read := func(n int) {
		t.Helper()
		for range n {
			bank, row := ops.Intn(g.Banks), ops.Intn(g.RowsPerBank)
			word := ops.Intn(g.WordsPerRow)
			// Half the reads target a word holding a weak cell, when the
			// row has one, so the assembled word is where the flips land.
			if cells := a.rowCells(g.GlobalRow(bank, row)); len(cells) > 0 && ops.Intn(2) == 0 {
				word = g.AddrOf(cells[ops.Intn(len(cells))].bit).Word
			}
			now += 6 * ops.Float64()
			got, err := a.ReadWord(bank, row, word, now)
			if err != nil {
				t.Fatal(err)
			}
			words, err := b.ReadRow(bank, row, now)
			if err != nil {
				t.Fatal(err)
			}
			if got != words[word] {
				t.Fatalf("t=%v bank %d row %d word %d: ReadWord %#x, ReadRow %#x", now, bank, row, word, got, words[word])
			}
			if got != a.wordAt(g.GlobalRow(bank, row), word) {
				flipped++
			}
			requireSameDevice(t, a, b)
		}
	}
	both := func(op func(d *Device)) {
		op(a)
		op(b)
	}

	both(func(d *Device) { d.WriteAll(patterns.Checkerboard(), now) })
	read(40)
	for i := range 4 {
		words := make([]uint64, g.WordsPerRow)
		for w := range words {
			words[w] = ops.Uint64()
		}
		bank, row := i%g.Banks, ops.Intn(g.RowsPerBank)
		both(func(d *Device) { _ = d.WriteRow(bank, row, words, now) })
	}
	for range 8 {
		bank, row, word, val := ops.Intn(g.Banks), ops.Intn(g.RowsPerBank), ops.Intn(g.WordsPerRow), ops.Uint64()
		both(func(d *Device) { _ = d.WriteWord(bank, row, word, val, now) })
	}
	read(40)
	both(func(d *Device) { d.SetAutoRefresh(0.128) })
	both(func(d *Device) { d.WriteAll(patterns.Random(7), now) })
	read(40)
	both(func(d *Device) { d.SetAutoRefresh(0) })
	both(func(d *Device) { d.InjectWeakCells(rng.New(0x1A7), 400, 4.0, now) })
	read(40)
	if flipped == 0 {
		t.Fatal("no read returned a flipped bit; the script exercised nothing")
	}
	if len(a.rows) == 0 || len(a.injected) == 0 {
		t.Fatalf("script left %d deviant rows and %d injected cells", len(a.rows), len(a.injected))
	}
}

// TestWeakBitsMatchesCells checks WeakBits word by word against a filter of
// Cells, on a device with injected cells, and that an address outside the
// device holds no weak cell.
func TestWeakBitsMatchesCells(t *testing.T) {
	d := testDevice(t, 13, nil)
	d.InjectWeakCells(rng.New(3), 500, 0, 0)
	g := d.Geometry()
	type masks struct{ weak, charged uint64 }
	want := map[[3]int]masks{}
	for _, c := range d.Cells(0) {
		a := g.AddrOf(c.Bit)
		m := want[[3]int{a.Bank, a.Row, a.Word}]
		m.weak |= 1 << a.Bit
		m.charged |= uint64(c.ChargedVal) << a.Bit
		want[[3]int{a.Bank, a.Row, a.Word}] = m
	}
	for bank := range g.Banks {
		for row := range g.RowsPerBank {
			for word := range g.WordsPerRow {
				weak, charged := d.WeakBits(bank, row, word)
				if m := want[[3]int{bank, row, word}]; weak != m.weak || charged != m.charged {
					t.Fatalf("bank %d row %d word %d: WeakBits (%#x, %#x), want (%#x, %#x)",
						bank, row, word, weak, charged, m.weak, m.charged)
				}
			}
		}
	}
	for _, a := range [][3]int{{-1, 0, 0}, {g.Banks, 0, 0}, {0, g.RowsPerBank, 0}, {0, 0, -1}, {0, 0, g.WordsPerRow}} {
		if weak, charged := d.WeakBits(a[0], a[1], a[2]); weak != 0 || charged != 0 {
			t.Fatalf("address %v outside the device: WeakBits (%#x, %#x)", a, weak, charged)
		}
	}
}
