package experiments

import (
	"context"
	"testing"
)

// Fig5RandomWins reports whether the random pattern found the most failures
// for every vendor in the result set — the paper's headline observation.
func Fig5RandomWins(rows []Fig5Row) bool {
	best := map[string]Fig5Row{}
	for _, r := range rows {
		if cur, ok := best[r.Vendor]; !ok || r.Coverage > cur.Coverage {
			best[r.Vendor] = r
		}
	}
	for _, r := range best {
		if r.Pattern != "random" {
			return false
		}
	}
	return len(best) > 0
}

func TestEntryIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Entries() {
		if e.ID == "" || seen[e.ID] {
			t.Errorf("entry ID %q is empty or repeated", e.ID)
		}
		seen[e.ID] = true
	}
}

// The fig5 and population entries' configurations at seed 1 must show the
// paper's shapes: random patterns lead on every vendor (Observation 3), and
// every chip of every vendor's fleet shows the coverage/FPR trend
// (Section 6.1.1).

func TestRegistryFig5RandomWins(t *testing.T) {
	cfg := DefaultFig5Config()
	cfg.Seed = 1
	rows, err := Fig5PatternCoverage(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !Fig5RandomWins(rows) {
		t.Errorf("random pattern did not lead on every vendor: %+v", rows)
	}
}

func TestRegistryPopulationSameTrend(t *testing.T) {
	cfg := DefaultPopulationConfig()
	cfg.Seed = 1
	results, err := PopulationSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.AllChipsAgree {
			t.Errorf("vendor %s fleet diverged from the paper's trend", r.Vendor)
		}
	}
}
