package experiments

import (
	"reaper/internal/core"
)

// The paper's fourth contribution bullet: DRAM cells "cannot easily be
// classified as weak or strong" — any finite observation window labels some
// cells strong that later fail, because per-read failures are probabilistic
// (normal CDFs), pattern-gated (DPD), and time-varying (VRT). This
// experiment quantifies that: profile for a classification window, label
// the discovered cells "weak" and everything else "strong", then keep
// profiling and count "strong"-labelled cells that fail anyway.

// ClassificationResult reports the fallacy quantitatively.
type ClassificationResult struct {
	// LabelledWeak is the size of the classification-window profile.
	LabelledWeak int
	// LateFailures is how many cells failed in the observation window
	// despite being labelled strong.
	LateFailures int
	// LateFailureRatio is LateFailures / LabelledWeak.
	LateFailureRatio float64
}

// ClassificationConfig drives the experiment.
type ClassificationConfig struct {
	Chip ChipSpec
	// IntervalS is the tested refresh interval.
	IntervalS float64
	// ClassifyIterations is the observation window used to build the
	// weak/strong labels.
	ClassifyIterations int
	// ObserveIterations continues testing after labelling.
	ObserveIterations int
	// ObserveHours spreads the post-label iterations over simulated time
	// (letting VRT act).
	ObserveHours float64
}

// DefaultClassificationConfig labels cells over 8 brute-force iterations,
// then observes 16 more over 8 simulated hours.
func DefaultClassificationConfig() ClassificationConfig {
	chip := DefaultChipSpec(55)
	chip.Bits = 16 << 20
	chip.WeakScale = 50
	return ClassificationConfig{
		Chip:               chip,
		IntervalS:          2.048,
		ClassifyIterations: 8,
		ObserveIterations:  16,
		ObserveHours:       8,
	}
}

// ClassificationFallacy runs the experiment.
func ClassificationFallacy(cfg ClassificationConfig) (*ClassificationResult, error) {
	st, err := cfg.Chip.NewStation()
	if err != nil {
		return nil, err
	}
	// Classification window.
	classified, err := core.BruteForce(st, cfg.IntervalS, core.Options{
		Iterations:              cfg.ClassifyIterations,
		FreshRandomPerIteration: true,
		Seed:                    1,
	})
	if err != nil {
		return nil, err
	}
	weak := classified.Failures

	// Observation window: everything newly failing was labelled strong.
	res := &ClassificationResult{LabelledWeak: weak.Len()}
	gap := cfg.ObserveHours * 3600 / float64(cfg.ObserveIterations)
	late := core.NewFailureSet()
	for it := 0; it < cfg.ObserveIterations; it++ {
		r, err := core.BruteForce(st, cfg.IntervalS, core.Options{
			Iterations:              1,
			FreshRandomPerIteration: true,
			Seed:                    uint64(it) + 1000,
		})
		if err != nil {
			return nil, err
		}
		for _, b := range r.Failures.Sorted() {
			if !weak.Contains(b) {
				late.Add(b)
			}
		}
		if idle := gap - r.RuntimeSeconds(); idle > 0 {
			st.Wait(idle)
		}
	}
	res.LateFailures = late.Len()
	if res.LabelledWeak > 0 {
		res.LateFailureRatio = float64(res.LateFailures) / float64(res.LabelledWeak)
	}
	return res, nil
}
