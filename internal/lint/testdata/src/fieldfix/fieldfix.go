// Package fieldfix is the test-only-field fixture: one exported field per
// write form, each written by the package's own code, a field only the
// package's test writes, a json-tagged field nothing writes, and map
// literals whose keys are not field names.
package fieldfix

// Options carries one field per write form.
type Options struct {
	Keyed       int
	Elided      int
	Assigned    int
	OpAssigned  int
	Incremented int
	Addressed   int
	Held        Inner
	TestOnly    int // WANT test-only-field
	Decoded     int `json:"decoded"`
	unexported  int
}

// Inner is written only through the Options field that holds it.
type Inner struct {
	Depth int
}

// Pair is written only by a positional literal.
type Pair struct {
	Left, Right int
}

type hidden struct {
	Never int
}

// Build writes every Options field but TestOnly and Decoded.
func Build(names map[string]int) []*Options {
	opts := []*Options{{Elided: 1}}
	o := &Options{Keyed: 2}
	o.Assigned = 3
	o.OpAssigned += 4
	o.Incremented++
	p := &o.Addressed
	*p = 5
	o.Held.Depth = 6
	byName := map[string]Options{"k": {}}
	key := "TestOnly"
	byPair := map[string]int{"Keyed": names["k"], key: 7}
	_ = Pair{byPair["Keyed"], len(byName)}
	_ = hidden{}
	_ = o.unexported
	return append(opts, o)
}
