// Package core implements the paper's contribution: DRAM retention failure
// profiling. It provides the brute-force baseline (Algorithm 1), reach
// profiling (Section 6 — profiling at a longer refresh interval and/or
// higher temperature than the target conditions), the three evaluation
// metrics (coverage, false positive rate, runtime), and the tradeoff
// explorer that regenerates the paper's Figures 9 and 10.
package core

import "slices"

// FailureSet is a set of failing cell addresses (global bit indices).
// The zero value is not usable; construct with NewFailureSet.
type FailureSet struct {
	m map[uint64]struct{}
}

// NewFailureSet returns an empty set, optionally pre-populated with bits.
func NewFailureSet(bits ...uint64) *FailureSet {
	s := &FailureSet{m: make(map[uint64]struct{}, len(bits))}
	for _, b := range bits {
		s.m[b] = struct{}{}
	}
	return s
}

// FromBits builds a set from a slice of bit addresses.
func FromBits(bits []uint64) *FailureSet { return NewFailureSet(bits...) }

// Len returns the number of cells in the set.
func (s *FailureSet) Len() int { return len(s.m) }

// Contains reports membership.
func (s *FailureSet) Contains(bit uint64) bool {
	_, ok := s.m[bit]
	return ok
}

// Add inserts a cell and reports whether it was new.
func (s *FailureSet) Add(bit uint64) bool {
	if _, ok := s.m[bit]; ok {
		return false
	}
	s.m[bit] = struct{}{}
	return true
}

// AddAll inserts all bits and returns how many were new.
func (s *FailureSet) AddAll(bits []uint64) int {
	added := 0
	for _, b := range bits {
		if s.Add(b) {
			added++
		}
	}
	return added
}

// Union returns a new set containing every cell in s or t.
func (s *FailureSet) Union(t *FailureSet) *FailureSet {
	out := NewFailureSet()
	for b := range s.m {
		out.m[b] = struct{}{}
	}
	for b := range t.m {
		out.m[b] = struct{}{}
	}
	return out
}

// Intersect returns a new set containing every cell in both s and t.
func (s *FailureSet) Intersect(t *FailureSet) *FailureSet {
	small, big := s, t
	if big.Len() < small.Len() {
		small, big = big, small
	}
	out := NewFailureSet()
	for b := range small.m {
		if big.Contains(b) {
			out.m[b] = struct{}{}
		}
	}
	return out
}

// Diff returns a new set containing the cells of s not in t.
func (s *FailureSet) Diff(t *FailureSet) *FailureSet {
	out := NewFailureSet()
	for b := range s.m {
		if !t.Contains(b) {
			out.m[b] = struct{}{}
		}
	}
	return out
}

// Clone returns an independent copy.
func (s *FailureSet) Clone() *FailureSet {
	out := &FailureSet{m: make(map[uint64]struct{}, len(s.m))}
	for b := range s.m {
		out.m[b] = struct{}{}
	}
	return out
}

// Sorted returns the cell addresses in ascending order.
func (s *FailureSet) Sorted() []uint64 {
	out := make([]uint64, 0, len(s.m))
	for b := range s.m {
		out = append(out, b)
	}
	slices.Sort(out)
	return out
}

// Metrics: the three quantities the paper evaluates every profiling
// mechanism on (Section 1 and Section 6).

// Coverage returns |found ∩ truth| / |truth|: the fraction of all possible
// failing cells at the target conditions that the profiler discovered.
// A nil or empty truth set yields coverage 1 (nothing to find).
func Coverage(found, truth *FailureSet) float64 {
	if truth == nil || truth.Len() == 0 {
		return 1
	}
	return float64(commonLen(found, truth)) / float64(truth.Len())
}

// FalsePositiveRate returns |found \ truth| / |found|: the fraction of
// discovered cells that never fail at the target conditions. An empty found
// set yields 0.
func FalsePositiveRate(found, truth *FailureSet) float64 {
	if found == nil || found.Len() == 0 {
		return 0
	}
	return float64(found.Len()-commonLen(found, truth)) / float64(found.Len())
}

// commonLen returns |s ∩ t| without building the intersection: it counts
// the members of the smaller set that the larger one contains. A nil set is
// empty.
func commonLen(s, t *FailureSet) int {
	if s == nil || t == nil {
		return 0
	}
	small, big := s, t
	if big.Len() < small.Len() {
		small, big = big, small
	}
	n := 0
	for b := range small.m {
		if big.Contains(b) {
			n++
		}
	}
	return n
}
