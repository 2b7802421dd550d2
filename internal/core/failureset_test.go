package core

import (
	"testing"
	"testing/quick"
)

func TestFailureSetBasics(t *testing.T) {
	s := NewFailureSet(1, 2, 3)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !s.Contains(2) || s.Contains(4) {
		t.Error("Contains wrong")
	}
	if !s.Add(4) {
		t.Error("Add of new element returned false")
	}
	if s.Add(4) {
		t.Error("Add of existing element returned true")
	}
	if got := s.AddAll([]uint64{4, 5, 6}); got != 2 {
		t.Errorf("AddAll returned %d, want 2", got)
	}
}

func TestFailureSetSorted(t *testing.T) {
	s := NewFailureSet(9, 1, 5)
	got := s.Sorted()
	want := []uint64{1, 5, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sorted = %v", got)
		}
	}
}

func TestFailureSetAlgebra(t *testing.T) {
	a := NewFailureSet(1, 2, 3)
	b := NewFailureSet(3, 4)
	if u := a.Union(b); u.Len() != 4 {
		t.Errorf("Union len = %d", u.Len())
	}
	if i := a.Intersect(b); i.Len() != 1 || !i.Contains(3) {
		t.Errorf("Intersect wrong: %v", i.Sorted())
	}
	if d := a.Diff(b); d.Len() != 2 || d.Contains(3) {
		t.Errorf("Diff wrong: %v", d.Sorted())
	}
	// Operands must be unchanged.
	if a.Len() != 3 || b.Len() != 2 {
		t.Error("set algebra mutated operands")
	}
}

func TestFailureSetClone(t *testing.T) {
	a := NewFailureSet(1)
	c := a.Clone()
	c.Add(2)
	if a.Contains(2) {
		t.Error("Clone shares storage")
	}
}

func TestSetAlgebraProperties(t *testing.T) {
	mk := func(bits []uint64) *FailureSet { return FromBits(bits) }
	f := func(xs, ys []uint64) bool {
		a, b := mk(xs), mk(ys)
		u := a.Union(b)
		i := a.Intersect(b)
		// Inclusion-exclusion.
		if u.Len()+i.Len() != a.Len()+b.Len() {
			return false
		}
		// Diff + intersect partitions a.
		if a.Diff(b).Len()+i.Len() != a.Len() {
			return false
		}
		// Intersection is symmetric.
		return b.Intersect(a).Len() == i.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCoverage(t *testing.T) {
	truth := NewFailureSet(1, 2, 3, 4)
	found := NewFailureSet(1, 2, 99)
	if got := Coverage(found, truth); got != 0.5 {
		t.Errorf("Coverage = %v, want 0.5", got)
	}
	if Coverage(found, NewFailureSet()) != 1 {
		t.Error("empty truth should give coverage 1")
	}
	if Coverage(found, nil) != 1 {
		t.Error("nil truth should give coverage 1")
	}
	if Coverage(NewFailureSet(), truth) != 0 {
		t.Error("empty found should give coverage 0")
	}
}

// TestMetricsMatchSetAlgebra pins Coverage and FalsePositiveRate, which
// count the members the two sets share, to the ratios of the Intersect and
// Diff sets they replaced. Byte-sized members make the random sets overlap.
func TestMetricsMatchSetAlgebra(t *testing.T) {
	set := func(xs []uint8) *FailureSet {
		s := NewFailureSet()
		for _, x := range xs {
			s.Add(uint64(x))
		}
		return s
	}
	f := func(a, b []uint8) bool {
		found, truth := set(a), set(b)
		wantCov, wantFPR := 1.0, 0.0
		if truth.Len() > 0 {
			wantCov = float64(found.Intersect(truth).Len()) / float64(truth.Len())
		}
		if found.Len() > 0 {
			wantFPR = float64(found.Diff(truth).Len()) / float64(found.Len())
		}
		return Coverage(found, truth) == wantCov && FalsePositiveRate(found, truth) == wantFPR
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFalsePositiveRate(t *testing.T) {
	truth := NewFailureSet(1, 2)
	found := NewFailureSet(1, 2, 3, 4)
	if got := FalsePositiveRate(found, truth); got != 0.5 {
		t.Errorf("FPR = %v, want 0.5", got)
	}
	if FalsePositiveRate(NewFailureSet(), truth) != 0 {
		t.Error("empty found should give FPR 0")
	}
	if FalsePositiveRate(nil, truth) != 0 {
		t.Error("nil found should give FPR 0")
	}
	if FalsePositiveRate(truth, truth) != 0 {
		t.Error("perfect profile should give FPR 0")
	}
}
