package ecc

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"

	"reaper/internal/rng"
)

// FlipBit returns a copy of w with the given encoded-word position (0..71)
// flipped. Positions follow the internal layout: 0 is the overall parity
// bit, powers of two are Hamming parity bits, the rest are data bits.
func FlipBit(w Word72, pos int) Word72 {
	if pos < 0 || pos >= 72 {
		panic("ecc: FlipBit position out of range")
	}
	word := unpackWord(w)
	word[pos] = !word[pos]
	return packWord(word)
}

// HammingDistance returns the number of differing bits between two encoded
// words.
func HammingDistance(a, b Word72) int {
	return bits.OnesCount64(a.Data^b.Data) + bits.OnesCount8(a.Check^b.Check)
}

func TestCodeValidate(t *testing.T) {
	for _, c := range StandardCodes() {
		if err := c.Validate(); err != nil {
			t.Errorf("%s invalid: %v", c.Name, err)
		}
	}
	bad := Code{K: -1, WordBits: 10, DataBits: 8}
	if err := bad.Validate(); err == nil {
		t.Error("negative K not rejected")
	}
	bad = Code{K: 0, WordBits: 8, DataBits: 16}
	if err := bad.Validate(); err == nil {
		t.Error("DataBits > WordBits not rejected")
	}
}

func TestUBERNoECCIsIdentityForSmallR(t *testing.T) {
	// With k=0 and w=64, UBER = (1/64) * P(>=1 failure) ~= R for tiny R.
	c := NoECC()
	for _, r := range []float64{1e-15, 1e-12, 1e-9} {
		u := c.UBER(r)
		if math.Abs(u/r-1) > 1e-3 {
			t.Errorf("NoECC UBER(%v) = %v, want ~%v", r, u, r)
		}
	}
}

func TestUBERSECDEDQuadratic(t *testing.T) {
	// For tiny R, SECDED UBER ~= (1/72) * C(72,2) * R^2 = 35.5 * R^2.
	c := SECDED()
	r := 1e-9
	want := 2556.0 / 72 * r * r
	got := c.UBER(r)
	if math.Abs(got/want-1) > 1e-3 {
		t.Errorf("SECDED UBER(%v) = %v, want ~%v", r, got, want)
	}
}

func TestUBEREdgeCases(t *testing.T) {
	c := SECDED()
	if c.UBER(0) != 0 || c.UBER(-1) != 0 {
		t.Error("UBER at R<=0 must be 0")
	}
	if u := c.UBER(1); u <= 0 || u > 1 {
		t.Errorf("UBER at R=1 out of range: %v", u)
	}
}

func TestUBERMonotonicInR(t *testing.T) {
	for _, c := range StandardCodes() {
		prev := 0.0
		for _, r := range []float64{1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2} {
			u := c.UBER(r)
			if u < prev {
				t.Errorf("%s UBER not monotonic at R=%v", c.Name, r)
			}
			prev = u
		}
	}
}

func TestStrongerCodesTolerateMore(t *testing.T) {
	n := NoECC().TolerableRBER(UBERConsumer)
	s := SECDED().TolerableRBER(UBERConsumer)
	e := ECC2().TolerableRBER(UBERConsumer)
	if !(n < s && s < e) {
		t.Errorf("tolerable RBER not ordered: %v %v %v", n, s, e)
	}
}

func TestTable1Anchors(t *testing.T) {
	// Paper Table 1 at UBER 1e-15: No ECC tolerates RBER 1.0e-15, SECDED
	// ~3.8e-9 (we compute ~5e-9 from Eq 6 exactly; same order), ECC-2
	// ~6.9e-7 (we compute ~1e-6; same order).
	if r := NoECC().TolerableRBER(UBERConsumer); math.Abs(r/1e-15-1) > 0.05 {
		t.Errorf("NoECC tolerable RBER = %v, want ~1e-15", r)
	}
	if r := SECDED().TolerableRBER(UBERConsumer); r < 3e-9 || r > 8e-9 {
		t.Errorf("SECDED tolerable RBER = %v, want a few 1e-9", r)
	}
	if r := ECC2().TolerableRBER(UBERConsumer); r < 4e-7 || r > 2e-6 {
		t.Errorf("ECC2 tolerable RBER = %v, want high 1e-7 range", r)
	}
}

func TestTolerableRBERIsTight(t *testing.T) {
	// The solver returns the *largest* admissible R: UBER just below the
	// target at R, above it at 2R.
	for _, c := range StandardCodes() {
		r := c.TolerableRBER(UBERConsumer)
		if c.UBER(r) > UBERConsumer*1.001 {
			t.Errorf("%s UBER at solved R exceeds target: %v", c.Name, c.UBER(r))
		}
		if c.UBER(2*r) <= UBERConsumer {
			t.Errorf("%s solved R not tight: doubling it still meets the target", c.Name)
		}
	}
}

func TestTolerableRBERDegenerate(t *testing.T) {
	if SECDED().TolerableRBER(0) != 0 {
		t.Error("zero target should give zero RBER")
	}
	if SECDED().TolerableRBER(-1) != 0 {
		t.Error("negative target should give zero RBER")
	}
	// An absurdly lax target saturates at the search ceiling.
	if r := SECDED().TolerableRBER(1); r < 0.4 {
		t.Errorf("lax target RBER = %v, want ~0.5", r)
	}
}

func TestTolerableBitErrorsScalesTable1(t *testing.T) {
	// Table 1: SECDED at 2GB tolerates ~65 bit errors (paper: 65.3 with
	// their 3.8e-9 figure; ours lands in the tens).
	got := SECDED().TolerableBitErrors(UBERConsumer, 2<<30)
	if got < 40 || got > 130 {
		t.Errorf("SECDED tolerable errors at 2GB = %v, want tens", got)
	}
	// Linear scaling with capacity (paper: 8GB row is 4x the 2GB row).
	r := SECDED().TolerableBitErrors(UBERConsumer, 8<<30) / got
	if math.Abs(r-4) > 1e-6 {
		t.Errorf("capacity scaling = %v, want 4", r)
	}
	// Enterprise target is stricter.
	if SECDED().TolerableBitErrors(UBEREnterprise, 2<<30) >= got {
		t.Error("enterprise target should tolerate fewer errors")
	}
}

func TestSECDEDRoundTrip(t *testing.T) {
	f := func(data uint64) bool {
		w := EncodeSECDED(data)
		got, status, _ := DecodeSECDED(w)
		return got == data && status == Clean
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSECDEDCorrectsEverySingleBitFlip(t *testing.T) {
	datas := []uint64{0, ^uint64(0), 0xdeadbeefcafef00d, 1, 1 << 63}
	for _, data := range datas {
		w := EncodeSECDED(data)
		for pos := 0; pos < 72; pos++ {
			corrupted := FlipBit(w, pos)
			got, status, fixed := DecodeSECDED(corrupted)
			if status != Corrected {
				t.Fatalf("flip at %d: status %v, want Corrected", pos, status)
			}
			if got != data {
				t.Fatalf("flip at %d: data %x, want %x", pos, got, data)
			}
			if fixed != pos {
				t.Fatalf("flip at %d reported as %d", pos, fixed)
			}
		}
	}
}

func TestSECDEDDetectsEveryDoubleBitFlip(t *testing.T) {
	data := uint64(0x0123456789abcdef)
	w := EncodeSECDED(data)
	for a := 0; a < 72; a++ {
		for b := a + 1; b < 72; b++ {
			corrupted := FlipBit(FlipBit(w, a), b)
			_, status, _ := DecodeSECDED(corrupted)
			if status != DoubleError {
				t.Fatalf("flips at (%d,%d): status %v, want DoubleError", a, b, status)
			}
		}
	}
}

func TestSECDEDCodeDistance(t *testing.T) {
	// SECDED codewords must be at Hamming distance >= 4 from each other;
	// spot-check random pairs.
	src := rng.New(3)
	for i := 0; i < 500; i++ {
		a := src.Uint64()
		b := src.Uint64()
		if a == b {
			continue
		}
		d := HammingDistance(EncodeSECDED(a), EncodeSECDED(b))
		if d < 4 {
			t.Fatalf("codewords for %x and %x at distance %d < 4", a, b, d)
		}
	}
}

func TestFlipBitPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FlipBit(-1) did not panic")
		}
	}()
	FlipBit(Word72{}, -1)
}

func TestDecodeStatusString(t *testing.T) {
	if Clean.String() != "clean" || Corrected.String() != "corrected" ||
		DoubleError.String() != "double-error" {
		t.Error("DecodeStatus strings wrong")
	}
	if DecodeStatus(42).String() == "" {
		t.Error("unknown status should still render")
	}
}
