package experiments

import (
	"cmp"
	"fmt"
	"slices"

	"reaper/internal/dram"
	"reaper/internal/patterns"
)

// UBER model validation: the paper's Equation 5 rests on the assumption
// that retention failures within an ECC word are independent, so the
// probability of a multi-bit word error is the product form
// P(all of the word's weak cells fail) given per-cell probabilities. This
// experiment validates that assumption *empirically inside the model*: it
// finds words containing two or more true failing cells, predicts the
// multi-bit-failure probability per test round from the per-cell worst-case
// probabilities, and compares against the measured frequency over many
// rounds. Agreement means Equation 6's arithmetic transfers to the device
// the profilers actually run against.

// UBERValidationResult reports predicted vs measured multi-bit rates.
type UBERValidationResult struct {
	WordsTested     int
	Rounds          int
	PredictedPerRnd float64 // expected multi-bit word failures per round
	MeasuredPerRnd  float64 // observed multi-bit word failures per round
	Ratio           float64 // measured / predicted
}

// UBERValidationConfig drives the experiment.
type UBERValidationConfig struct {
	Chip      ChipSpec
	IntervalS float64
	Rounds    int
	MaxWords  int
}

// DefaultUBERValidationConfig uses a long interval so multi-cell words have
// measurable joint failure probability.
func DefaultUBERValidationConfig() UBERValidationConfig {
	chip := DefaultChipSpec(77)
	chip.Bits = 16 << 20
	chip.WeakScale = 60
	chip.DisableVRT = true // keep per-round probabilities stationary
	return UBERValidationConfig{
		Chip:      chip,
		IntervalS: 3.0,
		Rounds:    200,
		MaxWords:  200,
	}
}

// UBERValidation runs the experiment.
func UBERValidation(cfg UBERValidationConfig) (*UBERValidationResult, error) {
	st, err := cfg.Chip.NewStation()
	if err != nil {
		return nil, err
	}
	dev := st.Device()
	geom := dev.Geometry()

	// Collect words with >= 2 charged-high weak cells whose worst-case
	// single-read failure probabilities at the test interval give a
	// measurable chance of a multi-bit failure.
	cellsByWord := map[[2]uint64][]dram.CellInfo{}
	for _, c := range dev.Cells(st.Clock()) {
		if c.ChargedVal != 1 {
			continue
		}
		a := geom.AddrOf(c.Bit)
		key := [2]uint64{uint64(geom.GlobalRow(a.Bank, a.Row)), uint64(a.Word)}
		cellsByWord[key] = append(cellsByWord[key], c)
	}
	// Iterate words in sorted key order: map order is randomized, and with
	// the MaxWords cut below a random order would make the selected word set
	// (and the whole experiment) nondeterministic run to run.
	keys := make([][2]uint64, 0, len(cellsByWord))
	for key := range cellsByWord {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(a, b [2]uint64) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	var words [][]uint64 // each selected word's weak-cell bit indices
	for _, key := range keys {
		cells := cellsByWord[key]
		if len(cells) < 2 {
			continue
		}
		var bits []uint64
		var probs []float64
		for _, c := range cells {
			bits = append(bits, c.Bit)
			probs = append(probs, dev.CellFailProb(c.Bit, cfg.IntervalS, 45, st.Clock()))
		}
		if atLeastTwo(probs) > 1e-6 {
			words = append(words, bits)
		}
		if len(words) >= cfg.MaxWords {
			break
		}
	}
	if len(words) == 0 {
		return nil, fmt.Errorf("experiments: no multi-cell words with measurable joint probability")
	}

	// Measure: repeated solid-1 write / wait / read rounds; count rounds
	// in which >= 2 of a word's cells failed together. The worst-case
	// probability is an upper bound under arbitrary data; solid-1 with
	// solid neighbourhoods is one fixed context, so we compare against
	// per-cell probabilities measured in the same context by tallying
	// per-cell rates too and re-predicting from them.
	cellFailCount := map[uint64]int{}
	measuredMulti := 0
	for round := 0; round < cfg.Rounds; round++ {
		st.WritePattern(patterns.Solid1())
		st.DisableRefresh()
		st.Wait(cfg.IntervalS)
		st.EnableRefresh()
		failed := map[uint64]bool{}
		for _, b := range st.ReadCompare() {
			failed[b] = true
		}
		for _, bits := range words {
			n := 0
			for _, g := range bits {
				if failed[g] {
					n++
					cellFailCount[g]++
				}
			}
			if n >= 2 {
				measuredMulti++
			}
		}
	}

	// Re-predict from the *measured* per-cell rates (removing the
	// worst-case-context gap) and compare joint behaviour.
	repredicted := 0.0
	for _, bits := range words {
		var ps []float64
		for _, g := range bits {
			ps = append(ps, float64(cellFailCount[g])/float64(cfg.Rounds))
		}
		repredicted += atLeastTwo(ps)
	}

	res := &UBERValidationResult{
		WordsTested:     len(words),
		Rounds:          cfg.Rounds,
		PredictedPerRnd: repredicted,
		MeasuredPerRnd:  float64(measuredMulti) / float64(cfg.Rounds),
	}
	if res.PredictedPerRnd > 0 {
		res.Ratio = res.MeasuredPerRnd / res.PredictedPerRnd
	}
	return res, nil
}

// atLeastTwo is the probability that two or more of independent events with
// probabilities ps occur: 1 - P(none) - P(exactly one).
func atLeastTwo(ps []float64) float64 {
	p0, p1 := 1.0, 0.0
	for i, pi := range ps {
		p0 *= 1 - pi
		term := pi
		for j, pj := range ps {
			if j != i {
				term *= 1 - pj
			}
		}
		p1 += term
	}
	return 1 - p0 - p1
}
