package workload

import (
	"fmt"
	"math"
	"testing"
)

// ByName returns the benchmark with the given name.
func ByName(name string) (Spec, error) {
	for _, s := range Benchmarks() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

func TestBenchmarksValid(t *testing.T) {
	suite := Benchmarks()
	if len(suite) < 10 {
		t.Fatalf("suite too small: %d", len(suite))
	}
	names := make(map[string]bool)
	for _, s := range suite {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if names[s.Name] {
			t.Errorf("duplicate benchmark %s", s.Name)
		}
		names[s.Name] = true
	}
}

func TestSuiteSpansIntensities(t *testing.T) {
	// The suite must include both memory-bound and compute-bound programs
	// for heterogeneous mixes.
	var min, max float64 = math.Inf(1), 0
	for _, s := range Benchmarks() {
		if s.MPKI < min {
			min = s.MPKI
		}
		if s.MPKI > max {
			max = s.MPKI
		}
	}
	if min > 1 || max < 20 {
		t.Errorf("MPKI range [%v, %v] too narrow", min, max)
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("mcf")
	if err != nil || s.Name != "mcf" {
		t.Fatalf("ByName(mcf) = %+v, %v", s, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name not rejected")
	}
}

func TestSpecValidate(t *testing.T) {
	bad := Spec{Name: "x", MPKI: -1, BaseIPC: 1, FootprintRows: 1}
	if bad.Validate() == nil {
		t.Error("negative MPKI not rejected")
	}
	bad = Spec{Name: "x", RowLocality: 1.5, BaseIPC: 1, FootprintRows: 1}
	if bad.Validate() == nil {
		t.Error("locality > 1 not rejected")
	}
	bad = Spec{Name: "x", BaseIPC: 0, FootprintRows: 1}
	if bad.Validate() == nil {
		t.Error("zero IPC not rejected")
	}
}

func TestMixesShapeAndDeterminism(t *testing.T) {
	a := Mixes(20, 4, 7)
	b := Mixes(20, 4, 7)
	if len(a) != 20 {
		t.Fatalf("got %d mixes", len(a))
	}
	for i := range a {
		if len(a[i]) != 4 {
			t.Fatalf("mix %d has %d members", i, len(a[i]))
		}
		for j := range a[i] {
			if a[i][j].Name != b[i][j].Name {
				t.Fatal("mixes not deterministic")
			}
		}
		// Within a mix, no duplicates (perMix < suite size).
		seen := map[string]bool{}
		for _, s := range a[i] {
			if seen[s.Name] {
				t.Errorf("mix %d has duplicate %s", i, s.Name)
			}
			seen[s.Name] = true
		}
	}
	// Different seeds differ.
	c := Mixes(20, 4, 8)
	same := true
	for i := range a {
		for j := range a[i] {
			if a[i][j].Name != c[i][j].Name {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds gave identical mixes")
	}
	if Mixes(0, 4, 1) != nil || Mixes(4, 0, 1) != nil {
		t.Error("degenerate mix requests should return nil")
	}
}

func TestStreamDeterminism(t *testing.T) {
	spec, _ := ByName("mcf")
	a, err := NewStream(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewStream(spec, 3)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("streams diverged")
		}
	}
}

func TestStreamRejectsBadSpec(t *testing.T) {
	if _, err := NewStream(Spec{}, 1); err == nil {
		t.Error("zero spec not rejected")
	}
}

func TestStreamMPKIStatistics(t *testing.T) {
	spec, _ := ByName("libquantum") // MPKI 22
	s, _ := NewStream(spec, 4)
	const n = 50000
	totalInstr := 0
	for i := 0; i < n; i++ {
		r := s.Next()
		if r.InstrGap < 1 {
			t.Fatal("gap must be at least 1 instruction")
		}
		totalInstr += r.InstrGap
	}
	mpki := float64(n) / float64(totalInstr) * 1000
	if math.Abs(mpki-spec.MPKI) > spec.MPKI*0.1 {
		t.Errorf("measured MPKI = %v, want ~%v", mpki, spec.MPKI)
	}
}

func TestStreamRowLocality(t *testing.T) {
	spec, _ := ByName("libquantum") // locality 0.75
	s, _ := NewStream(spec, 5)
	const n = 50000
	same := 0
	prev := s.Next().Row
	for i := 0; i < n; i++ {
		r := s.Next()
		if r.Row == prev {
			same++
		}
		prev = r.Row
	}
	frac := float64(same) / n
	// Random re-picks can also land on the same row, so frac >= locality.
	if frac < 0.72 || frac > 0.82 {
		t.Errorf("same-row fraction = %v, want ~0.75", frac)
	}
}

func TestStreamWriteFraction(t *testing.T) {
	spec, _ := ByName("lbm") // write fraction 0.45
	s, _ := NewStream(spec, 6)
	const n = 50000
	writes := 0
	for i := 0; i < n; i++ {
		if s.Next().Write {
			writes++
		}
	}
	frac := float64(writes) / n
	if math.Abs(frac-0.45) > 0.02 {
		t.Errorf("write fraction = %v, want 0.45", frac)
	}
}

func TestStreamRowsWithinFootprint(t *testing.T) {
	spec, _ := ByName("gamess")
	s, _ := NewStream(spec, 7)
	for i := 0; i < 10000; i++ {
		if r := s.Next(); r.Row >= uint64(spec.FootprintRows) {
			t.Fatalf("row %d outside footprint %d", r.Row, spec.FootprintRows)
		}
	}
}
