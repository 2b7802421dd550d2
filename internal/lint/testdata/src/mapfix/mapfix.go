// Package mapfix exercises the map-order rule: map iteration may not leak
// Go's randomized iteration order into appended slices, float accumulators,
// or output streams. Order-independent bodies are allowed.
package mapfix

import (
	"fmt"
	"sort"
)

// KeysUnsorted is the classic silent determinism killer.
func KeysUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // WANT map-order
	}
	return keys
}

// KeysSorted is the allowed idiom: collect, then sort before use.
func KeysSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// KeysHelperSorted is allowed via a local sort helper: any call whose name
// mentions sort, with the slice among its arguments.
func KeysHelperSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sortKeys(keys)
	return keys
}

func sortKeys(keys []string) { sort.Strings(keys) }

// SumFloats accumulates floats: addition is not associative, so the result
// depends on iteration order in the low bits.
func SumFloats(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // WANT map-order
	}
	return sum
}

// SumFloatsPlain is the spelled-out accumulation form of the same bug.
func SumFloatsPlain(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum = sum + v // WANT map-order
	}
	return sum
}

// CountInts is allowed: integer addition is associative and commutative, so
// any iteration order yields the same total.
func CountInts(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// Dump writes lines straight from the loop.
func Dump(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v) // WANT map-order
	}
}

// Copy is allowed: writing m[k] slots is order-independent.
func Copy(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// SliceAppend is allowed: ranging over a slice is ordered.
func SliceAppend(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x*2)
	}
	return out
}
