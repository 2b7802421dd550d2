package patterns

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestSolid(t *testing.T) {
	if Solid0().Word(3, 7) != 0 {
		t.Error("solid0 not zero")
	}
	if Solid1().Word(0, 0) != ^uint64(0) {
		t.Error("solid1 not all ones")
	}
	if Solid0().Name() != "solid0" || Solid1().Name() != "solid1" {
		t.Error("solid names wrong")
	}
}

func TestCheckerboardAlternates(t *testing.T) {
	p := Checkerboard()
	even := p.Word(0, 0)
	odd := p.Word(1, 0)
	if even != ^odd {
		t.Errorf("checker rows not inverted: %x vs %x", even, odd)
	}
	// Within a row, adjacent bits must differ.
	if even&(even>>1) != 0 || (^even)&((^even)>>1) != 0 {
		t.Errorf("checker row has adjacent equal bits: %x", even)
	}
}

func TestColStripeConstantAcrossRows(t *testing.T) {
	p := ColStripe()
	if p.Word(0, 0) != p.Word(5, 3) {
		t.Error("colstripe varies across rows")
	}
	if bits.OnesCount64(p.Word(0, 0)) != 32 {
		t.Error("colstripe should have 32 ones per word")
	}
}

func TestRowStripe(t *testing.T) {
	p := RowStripe()
	if p.Word(0, 0) != ^uint64(0) || p.Word(1, 0) != 0 {
		t.Error("rowstripe rows wrong")
	}
}

func TestWalkingOnesSingleBit(t *testing.T) {
	p := WalkingOnes()
	for row := uint32(0); row < 100; row++ {
		for word := 0; word < 8; word++ {
			if bits.OnesCount64(p.Word(row, word)) != 1 {
				t.Fatalf("walking ones has %d bits set at (%d,%d)",
					bits.OnesCount64(p.Word(row, word)), row, word)
			}
		}
	}
	// The bit must actually move between adjacent words.
	if p.Word(0, 0) == p.Word(0, 1) {
		t.Error("walking bit does not walk")
	}
}

func TestRandomDeterministicAndSeedSensitive(t *testing.T) {
	a := Random(1)
	b := Random(1)
	c := Random(2)
	f := func(row uint32, word uint16) bool {
		w := int(word)
		return a.Word(row, w) == b.Word(row, w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := 0; i < 100; i++ {
		if a.Word(uint32(i), i) == c.Word(uint32(i), i) {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different random seeds agreed on %d/100 words", same)
	}
}

func TestRandomBitBalance(t *testing.T) {
	p := Random(99)
	ones := 0
	const words = 10000
	for i := 0; i < words; i++ {
		ones += bits.OnesCount64(p.Word(uint32(i/64), i%64))
	}
	frac := float64(ones) / (words * 64)
	if frac < 0.49 || frac > 0.51 {
		t.Errorf("random pattern ones fraction = %v, want ~0.5", frac)
	}
}

func TestInvertRoundTrip(t *testing.T) {
	f := func(row uint32, word uint16, seed uint64) bool {
		p := Random(seed)
		w := int(word)
		inv := Invert(p)
		if inv.Word(row, w) != ^p.Word(row, w) {
			return false
		}
		// Double inversion returns the original pattern value.
		return Invert(inv).Word(row, w) == p.Word(row, w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInvertName(t *testing.T) {
	if Invert(Solid0()).Name() != "~solid0" {
		t.Errorf("inverted name = %q", Invert(Solid0()).Name())
	}
}

func TestStandardSets(t *testing.T) {
	std := Standard(1)
	if len(std) != 6 {
		t.Fatalf("Standard has %d patterns, want 6", len(std))
	}
	all := StandardWithInverses(1)
	if len(all) != 12 {
		t.Fatalf("StandardWithInverses has %d patterns, want 12", len(all))
	}
	// Each even index is followed by its inverse.
	for i := 0; i < len(all); i += 2 {
		if all[i+1].Word(7, 3) != ^all[i].Word(7, 3) {
			t.Errorf("pattern %d's successor is not its inverse", i)
		}
	}
	seen := make(map[string]bool)
	for _, p := range all {
		n := p.Name()
		if seen[n] {
			t.Errorf("duplicate pattern name %q", n)
		}
		seen[n] = true
	}
}
