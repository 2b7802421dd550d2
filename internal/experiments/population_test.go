package experiments

import (
	"context"
	"strings"
	"testing"

	"reaper/internal/dram"
)

func TestPopulationSweep(t *testing.T) {
	cfg := DefaultPopulationConfig()
	cfg.ChipsPerVendor = 3
	cfg.ChipBits = 8 << 20
	results, err := PopulationSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d vendor results", len(results))
	}
	vendorBER := map[string]float64{}
	for _, r := range results {
		if len(r.Chips) != 3 {
			t.Fatalf("vendor %s has %d chips", r.Vendor, len(r.Chips))
		}
		if !r.AllChipsAgree {
			t.Errorf("vendor %s: not every chip showed the reach tradeoff trend: %+v",
				r.Vendor, r.Chips)
		}
		if r.CoverageMean < 0.9 {
			t.Errorf("vendor %s: mean coverage %v too low", r.Vendor, r.CoverageMean)
		}
		if r.FPRMean <= 0 {
			t.Errorf("vendor %s: mean FPR %v should be positive", r.Vendor, r.FPRMean)
		}
		if r.BERStd < 0 {
			t.Errorf("vendor %s: negative BER std", r.Vendor)
		}
		vendorBER[r.Vendor] = r.BERMean
	}
	// Vendor C is calibrated with the highest BER, vendor A the lowest
	// (at 1024ms the anchor ordering holds).
	if !(vendorBER["A"] < vendorBER["C"]) {
		t.Errorf("vendor BER ordering violated: %v", vendorBER)
	}
	// Per-chip BER must be near the vendor calibration on average.
	for _, r := range results {
		var want float64
		for _, v := range dram.Vendors() {
			if v.Name == r.Vendor {
				want = v.BERAt1024ms
			}
		}
		if r.BERMean < want/4 || r.BERMean > want*4 {
			t.Errorf("vendor %s fleet BER %v far from calibration %v", r.Vendor, r.BERMean, want)
		}
	}

	var sb strings.Builder
	PopulationTable(results).Render(&sb)
	if !strings.Contains(sb.String(), "Population sweep") {
		t.Error("table did not render")
	}
}

func TestPopulationSweepValidation(t *testing.T) {
	cfg := DefaultPopulationConfig()
	cfg.ChipsPerVendor = 0
	if _, err := PopulationSweep(context.Background(), cfg); err == nil {
		t.Error("zero fleet not rejected")
	}
}

// TestPopulationSeedsDistinct guards the per-chip seed layout past 1000
// chips per vendor: no two (vendor, chip) jobs may share a seed, or they
// would draw from the same streams. Only specs are derived; no chip is built.
func TestPopulationSeedsDistinct(t *testing.T) {
	cfg := DefaultPopulationConfig()
	cfg.ChipsPerVendor = 1001
	vendors := dram.Vendors()
	seen := make(map[uint64]int)
	for job := 0; job < len(vendors)*cfg.ChipsPerVendor; job++ {
		seed := populationSpec(cfg, vendors, job).Seed
		if prev, ok := seen[seed]; ok {
			t.Fatalf("jobs %d and %d share seed %d", prev, job, seed)
		}
		seen[seed] = job
	}
	// Chips below index 1000 keep the seeds cmd/bench's digests pin.
	if got, want := populationSpec(cfg, vendors, cfg.ChipsPerVendor+999).Seed, cfg.Seed+1*1000+999; got != want {
		t.Errorf("vendor 1 chip 999 seed = %d, want %d", got, want)
	}
}
