package dram

import (
	"math"
	"math/bits"
)

// bitTable dedups and bit-orders the bits construction draws for its weak
// cells. A bit's bucket is its top bits, bit >> shift, so the buckets split
// the device's bits into ascending runs. Each bucket chains the cells drawn
// into it, newest first: head holds, per bucket, one plus the draw index of
// its newest cell, and next, per cell, one plus the draw index of the cell
// drawn into its bucket before it, so zero ends a chain. With about one
// bucket per cell a chain is about one cell long, so add costs a few loads
// and order is one walk over the buckets.
type bitTable struct {
	shift uint
	head  []uint32
	next  []uint32
	bits  []uint64 // per cell, in draw order
}

// newBitTable sizes a table for about want cells drawn from the bits [0,
// total). Its buckets are 2^shift bits wide, shift being the least that
// leaves no more buckets than the power of two at or above want; want is
// capped at total, so there are never more buckets than bits. Its arrays
// have room for four standard deviations of a Poisson count past want, so
// a drawn count above its mean almost never grows them. More cells than
// that lengthen the chains and grow the arrays.
func newBitTable(total uint64, want int) *bitTable {
	want = int(min(uint64(max(want, 1)), total))
	room := int(min(uint64(want)+uint64(math.Ceil(4*math.Sqrt(float64(want)))), total))
	shift := max(bits.Len64(total-1)-bits.Len(uint(want-1)), 0)
	return &bitTable{
		shift: uint(shift),
		head:  make([]uint32, (total-1)>>shift+1),
		next:  make([]uint32, 0, room),
		bits:  make([]uint64, 0, room),
	}
}

// add records bit as the next drawn cell and reports true, or reports false
// and records nothing when a cell already holds the bit.
func (t *bitTable) add(bit uint64) bool {
	b := bit >> t.shift
	for j := t.head[b]; j != 0; j = t.next[j-1] {
		if t.bits[j-1] == bit {
			return false
		}
	}
	t.bits = append(t.bits, bit)
	t.next = append(t.next, t.head[b])
	t.head[b] = uint32(len(t.bits))
	return true
}

// order returns the drawn bits in ascending order and, at the same
// positions, the draw index of the cell holding each. The buckets are
// visited in order and each chain is insertion-sorted into place as it is
// read, which orders the whole.
func (t *bitTable) order() (sorted []uint64, idx []uint32) {
	sorted = make([]uint64, len(t.bits))
	idx = make([]uint32, len(t.bits))
	k := 0
	for _, j := range t.head {
		lo := k
		for ; j != 0; j = t.next[j-1] {
			bit := t.bits[j-1]
			p := k
			for p > lo && sorted[p-1] > bit {
				sorted[p], idx[p] = sorted[p-1], idx[p-1]
				p--
			}
			sorted[p], idx[p] = bit, j-1
			k++
		}
	}
	return sorted, idx
}
