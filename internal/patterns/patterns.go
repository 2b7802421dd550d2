// Package patterns implements the data patterns used for DRAM retention
// failure testing. The paper (Section 3.2, citing Liu+ ISCA'13 and Khan+
// SIGMETRICS'14) identifies solid 1s/0s, checkerboards, row/column stripes,
// walking 1s/0s, random data, and their inverses as the effective patterns;
// Figure 5 shows their relative failure-discovery coverage on LPDDR4.
//
// A Pattern deterministically defines the 64-bit word stored at every
// (row, word) location, which lets the device model re-derive stored content
// without materializing it. Pattern satisfies dram.RowData structurally.
package patterns

import "fmt"

// Pattern is deterministic row content with a display name.
type Pattern interface {
	// Word returns the content of the given word of the given global row.
	Word(globalRow uint32, word int) uint64
	// Name identifies the pattern, e.g. "checker" or "~rowstripe".
	Name() string
}

type solid struct{ val uint64 }

func (s solid) Word(uint32, int) uint64 { return s.val }
func (s solid) Name() string {
	if s.val == 0 {
		return "solid0"
	}
	return "solid1"
}

// Solid0 is the all-zeros data pattern.
func Solid0() Pattern { return solid{0} }

// Solid1 is the all-ones data pattern.
func Solid1() Pattern { return solid{^uint64(0)} }

type checker struct{}

func (checker) Word(row uint32, _ int) uint64 {
	if row%2 == 0 {
		return 0xAAAAAAAAAAAAAAAA
	}
	return 0x5555555555555555
}
func (checker) Name() string { return "checker" }

// Checkerboard alternates bits within each row and flips phase between
// adjacent rows, maximizing the number of charged-next-to-discharged
// neighbour pairs.
func Checkerboard() Pattern { return checker{} }

type colStripe struct{}

func (colStripe) Word(uint32, int) uint64 { return 0xAAAAAAAAAAAAAAAA }
func (colStripe) Name() string            { return "colstripe" }

// ColStripe stores alternating bit columns, identical in every row.
func ColStripe() Pattern { return colStripe{} }

type rowStripe struct{}

func (rowStripe) Word(row uint32, _ int) uint64 {
	if row%2 == 0 {
		return ^uint64(0)
	}
	return 0
}
func (rowStripe) Name() string { return "rowstripe" }

// RowStripe stores alternating all-ones and all-zeros rows.
func RowStripe() Pattern { return rowStripe{} }

type walking struct{}

func (walking) Word(row uint32, word int) uint64 {
	return 1 << ((uint(row) + uint(word)) % 64)
}
func (walking) Name() string { return "walk1" }

// WalkingOnes stores a single 1 bit marching through a field of 0s, with the
// position advancing by one bit per word and per row.
func WalkingOnes() Pattern { return walking{} }

type random struct{ seed uint64 }

func (r random) Word(row uint32, word int) uint64 {
	x := r.seed ^ uint64(row)*0x9e3779b97f4a7c15 ^ uint64(word)*0xc2b2ae3d27d4eb4f
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
func (r random) Name() string { return fmt.Sprintf("random(%#x)", r.seed) }

// Random returns a reproducible pseudo-random pattern: every (row, word)
// location holds a stable hash of (seed, row, word). Distinct seeds give
// independent patterns, which is how profiling explores fresh neighbourhood
// data each iteration.
func Random(seed uint64) Pattern { return random{seed} }

type inverted struct{ p Pattern }

func (i inverted) Word(row uint32, word int) uint64 { return ^i.p.Word(row, word) }
func (i inverted) Name() string                     { return "~" + i.p.Name() }

// Invert returns the bitwise inverse of a pattern. Testing a pattern and its
// inverse covers both true-cells (which lose 1s) and anti-cells (which lose
// 0s).
func Invert(p Pattern) Pattern {
	if i, ok := p.(inverted); ok {
		return i.p
	}
	return inverted{p}
}

// Standard returns the six canonical test patterns without inverses:
// solid 0s, checkerboard, column stripe, row stripe, walking 1s, and a
// random pattern derived from seed.
func Standard(seed uint64) []Pattern {
	return []Pattern{
		Solid0(),
		Checkerboard(),
		ColStripe(),
		RowStripe(),
		WalkingOnes(),
		Random(seed),
	}
}

// StandardWithInverses returns the six canonical patterns and their six
// inverses (12 total), the full set the paper's brute-force profiling runs.
func StandardWithInverses(seed uint64) []Pattern {
	base := Standard(seed)
	out := make([]Pattern, 0, 2*len(base))
	for _, p := range base {
		out = append(out, p, Invert(p))
	}
	return out
}
