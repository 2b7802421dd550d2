package dram

import (
	"testing"
	"testing/quick"
)

func TestGeometryValidate(t *testing.T) {
	good := Geometry{Banks: 8, RowsPerBank: 64, WordsPerRow: 32}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Geometry{
		{Banks: 0, RowsPerBank: 1, WordsPerRow: 1},
		{Banks: 1, RowsPerBank: -1, WordsPerRow: 1},
		{Banks: 1, RowsPerBank: 1, WordsPerRow: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("geometry %+v not rejected", bad)
		}
	}
}

func TestGeometrySizes(t *testing.T) {
	g := Geometry{Banks: 8, RowsPerBank: 4096, WordsPerRow: 256}
	if g.TotalRows() != 8*4096 {
		t.Errorf("TotalRows = %d", g.TotalRows())
	}
	if g.RowBits() != 256*64 {
		t.Errorf("RowBits = %d", g.RowBits())
	}
	if g.TotalBits() != int64(8)*4096*256*64 {
		t.Errorf("TotalBits = %d", g.TotalBits())
	}
	if g.TotalBytes() != g.TotalBits()/8 {
		t.Errorf("TotalBytes inconsistent")
	}
}

func TestGeometryForBits(t *testing.T) {
	for _, bits := range []int64{1, 1 << 20, 1 << 30, 8 << 30} {
		g := GeometryForBits(bits)
		if err := g.Validate(); err != nil {
			t.Fatalf("GeometryForBits(%d) invalid: %v", bits, err)
		}
		if g.TotalBits() < bits {
			t.Errorf("GeometryForBits(%d) too small: %d", bits, g.TotalBits())
		}
		// Should not overshoot by more than one row per bank.
		if g.TotalBits() > bits+int64(g.Banks)*int64(g.RowBits()) {
			t.Errorf("GeometryForBits(%d) overshoots: %d", bits, g.TotalBits())
		}
	}
}

func TestAddrRoundTrip(t *testing.T) {
	g := Geometry{Banks: 8, RowsPerBank: 128, WordsPerRow: 32}
	f := func(raw uint64) bool {
		bit := raw % uint64(g.TotalBits())
		a := g.AddrOf(bit)
		if a.Bank < 0 || a.Bank >= g.Banks || a.Row < 0 || a.Row >= g.RowsPerBank ||
			a.Word < 0 || a.Word >= g.WordsPerRow || a.Bit < 0 || a.Bit >= 64 {
			return false
		}
		return g.BitIndex(a) == bit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalRowConsistentWithAddr(t *testing.T) {
	g := Geometry{Banks: 4, RowsPerBank: 16, WordsPerRow: 2}
	for bank := 0; bank < g.Banks; bank++ {
		for row := 0; row < g.RowsPerBank; row++ {
			bit := g.BitIndex(Addr{Bank: bank, Row: row})
			if g.rowOfBit(bit) != g.GlobalRow(bank, row) {
				t.Fatalf("rowOfBit/GlobalRow disagree at bank %d row %d", bank, row)
			}
		}
	}
}

func TestVendorParams(t *testing.T) {
	for _, v := range Vendors() {
		if err := v.Validate(); err != nil {
			t.Errorf("vendor %s invalid: %v", v.Name, err)
		}
	}
	bad := VendorB()
	bad.TempCoeff = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative temp coeff not rejected")
	}
}

func TestVendorBERAnchors(t *testing.T) {
	v := VendorB()
	// The Section 6.2.3 anchor: 2464 failures in 2GB at 1024ms/45C.
	got := v.BER(1.024, 45) * float64(int64(2)<<30*8)
	if got < 2300 || got > 2600 {
		t.Errorf("BER anchor gives %v failures per 2GB, want ~2464", got)
	}
	// Temperature scaling: ~10x per +10C (Eq 1, vendor B coeff 0.20 -> e^2 = 7.4x).
	ratio := v.BER(1.024, 55) / v.BER(1.024, 45)
	if ratio < 7 || ratio > 8 {
		t.Errorf("BER 10C ratio = %v, want e^2", ratio)
	}
	if v.BER(0, 45) != 0 {
		t.Error("BER at t=0 must be 0")
	}
}

func TestVendorVRTRateAnchor(t *testing.T) {
	v := VendorB()
	got := v.VRTRate(1.024, 45, 2<<30)
	if got < 0.7 || got > 0.76 {
		t.Errorf("VRT rate anchor = %v cells/hr per 2GB, want 0.73", got)
	}
	// Rate must scale linearly with capacity.
	if r := v.VRTRate(1.024, 45, 4<<30) / got; r < 1.99 || r > 2.01 {
		t.Errorf("VRT rate capacity scaling = %v, want 2", r)
	}
	// And polynomially with interval.
	if v.VRTRate(2.048, 45, 2<<30) <= got*4 {
		t.Error("VRT rate should grow super-quadratically with interval")
	}
}

func TestMuTempScaleConsistentWithBER(t *testing.T) {
	// Scaling all means by RetentionScale must reproduce the BER temperature
	// factor for the power-law population: count(t) ~ (t/scale)^beta.
	v := VendorB()
	scale := v.RetentionScale(55)
	countRatio := pow(1/scale, v.BERExponent)
	berRatio := v.BER(1.024, 55) / v.BER(1.024, 45)
	if countRatio/berRatio < 0.99 || countRatio/berRatio > 1.01 {
		t.Errorf("RetentionScale inconsistent with BER: %v vs %v", countRatio, berRatio)
	}
	if v.RetentionScale(45) != 1 {
		t.Error("RetentionScale at reference temp must be 1")
	}
}
