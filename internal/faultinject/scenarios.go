package faultinject

import (
	"fmt"
	"sort"
)

// Named fault-scenario presets shared by cmd/soak's -scenario flag and the
// test-program "soak" stage (internal/testprog), so a scenario named in a
// JSON program is bit-identical to the same name on the command line.
//
// Each preset derives from DefaultScenario with the caller's seed and scales
// the hazard rates; "default" returns nil, meaning "let the soak harness use
// its own default derivation" (which is bit-identical to passing no scenario
// at all).
var namedScenarios = map[string]func(seed uint64) *Scenario{
	// The standard soak hazards, unchanged.
	"default": func(uint64) *Scenario { return nil },
	// Half-rate hazards and no round aborts: a benign deployment.
	"quiet": func(seed uint64) *Scenario {
		sc := DefaultScenario(seed)
		sc.VRTBurstMeanHours *= 2
		sc.DPDFlipMeanHours *= 2
		sc.TempExcursionMeanHours *= 2
		sc.WeakArrivalPerHour /= 2
		sc.RoundAbortProb = 0
		return &sc
	},
	// Double-rate hazards, hotter excursions, frequent aborts: a hostile
	// thermal environment.
	"harsh": func(seed uint64) *Scenario {
		sc := DefaultScenario(seed)
		sc.VRTBurstMeanHours /= 2
		sc.DPDFlipMeanHours /= 2
		sc.TempExcursionMeanHours /= 2
		sc.TempExcursionPeakC += 4
		sc.WeakArrivalPerHour *= 2
		sc.RoundAbortProb = 0.25
		return &sc
	},
}

// NamedScenario builds the preset scenario registered under name, derived
// from DefaultScenario(seed). The "default" preset returns
// (nil, nil): callers should pass the nil through so the harness applies its
// own default derivation. Unknown names report an error listing the valid
// preset names.
func NamedScenario(name string, seed uint64) (*Scenario, error) {
	mk, ok := namedScenarios[name]
	if !ok {
		return nil, fmt.Errorf("faultinject: unknown scenario %q; valid scenarios: %v",
			name, ScenarioNames())
	}
	return mk(seed), nil
}

// ScenarioNames returns the registered preset names in sorted order.
func ScenarioNames() []string {
	names := make([]string, 0, len(namedScenarios))
	for name := range namedScenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
