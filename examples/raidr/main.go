// RAIDR integration (paper Section 7.1.2): REAPER profiles the chip at a
// ladder of refresh intervals, the rows are binned by the retention of
// their weakest cell, and each bin is refreshed at its own rate — most rows
// end up in the longest bin, eliminating the bulk of refresh operations.
package main

import (
	"fmt"
	"log"

	"reaper"
	"reaper/internal/core"
	"reaper/internal/mitigate"
	"reaper/internal/power"
)

func main() {
	st, err := reaper.NewStation(reaper.ChipConfig{
		CapacityBits: 256 << 20,
		Seed:         77,
	})
	if err != nil {
		log.Fatal(err)
	}
	geom := st.Device().Geometry()
	fmt.Printf("chip: %v\n\n", geom)

	// Refresh-rate bins: the default plus three extended intervals.
	bins := []float64{0.064, 0.512, 1.024, 2.048}
	raidr, err := mitigate.NewRAIDR(geom, bins)
	if err != nil {
		log.Fatal(err)
	}

	// REAPER provides one profile per candidate bin, each taken with
	// +250ms reach for high coverage.
	profiles := make(map[float64]*core.FailureSet)
	for _, b := range bins[1:] {
		res, err := reaper.Profile(st, b, reaper.ReachConditions{DeltaInterval: 0.25},
			reaper.Options{Iterations: 12, FreshRandomPerIteration: true, Seed: uint64(b * 1e6)})
		if err != nil {
			log.Fatal(err)
		}
		profiles[b] = res.Failures
		fmt.Printf("profile @ %4.0fms (+250ms reach): %4d failing cells, %.0fs simulated profiling time\n",
			b*1000, res.Failures.Len(), res.RuntimeSeconds())
	}

	if err := raidr.Assign(func(t float64) *core.FailureSet { return profiles[t] }); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nrow bins:")
	counts := raidr.BinCounts()
	for i, c := range counts {
		fmt.Printf("  %6.0fms: %6d rows (%.2f%%)\n",
			bins[i]*1000, c, float64(c)/float64(geom.TotalRows())*100)
	}
	fmt.Printf("\nrefresh operations eliminated vs all-rows-at-64ms: %.1f%%\n",
		raidr.Savings(0.064)*100)

	// Translate the refresh-rate reduction into DRAM power using the
	// energy model, projected onto a production-scale module (32 x 8Gb
	// chips): effective refresh power scales with the binned op-rate
	// fraction measured on the scale-model chip.
	opFraction := raidr.RefreshOpsPerSecond() / raidr.BaselineOpsPerSecond(0.064)
	moduleBytes := int64(32 * (8 << 30) / 8)
	baseRefreshW := power.RefreshWatts(moduleBytes, 0.064)
	binnedRefreshW := baseRefreshW * opFraction
	bg := power.BackgroundWatts(moduleBytes)
	fmt.Printf("projected 32GB module power (background + refresh): %.2f W -> %.2f W (%.1f%% reduction)\n",
		bg+baseRefreshW, bg+binnedRefreshW,
		(1-(bg+binnedRefreshW)/(bg+baseRefreshW))*100)
}
