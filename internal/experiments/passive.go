package experiments

import (
	"context"

	"reaper/internal/core"
	"reaper/internal/dram"
	"reaper/internal/mitigate"
	"reaper/internal/scrub"
)

// passiveVsActive contrasts AVATAR-style ECC scrubbing (passive, the
// paper's Section 3.2) with one active reach profile on two identically
// seeded 8 Mbit chips at a 2048 ms target, and returns the coverage of each,
// passive first. The scrubber sweeps benign resident data (each true
// failing cell's word stores the cell's discharged value) hourly for a day
// and is scored at word granularity; the reach profile tests worst-case
// patterns deliberately. Both are scored against the oracle truth at the
// target.
func passiveVsActive(_ context.Context, seed uint64, _ int) (coverage [2]float64, err error) {
	spec := ChipSpec{Bits: 8 << 20, WeakScale: 20, Vendor: dram.VendorB(), Seed: seed}

	st, err := spec.NewStation()
	if err != nil {
		return coverage, err
	}
	truth := core.Truth(st, 2.048, 45)
	geom := st.Device().Geometry()
	mem, err := scrub.NewECCMemory(st)
	if err != nil {
		return coverage, err
	}
	scr, err := scrub.NewScrubber(mem)
	if err != nil {
		return coverage, err
	}
	chargedOf := map[uint64]uint8{}
	for _, c := range st.Device().Cells(st.Clock()) {
		chargedOf[c.Bit] = c.ChargedVal
	}
	for _, bit := range truth.Sorted() {
		a := geom.AddrOf(bit)
		val := uint64(0)
		if chargedOf[bit] == 0 {
			val = ^uint64(0)
		}
		if err := mem.Write(mitigate.WordAddr{Bank: a.Bank, Row: a.Row, Word: a.Word}, val); err != nil {
			return coverage, err
		}
	}
	st.SetRefreshInterval(2.048)
	for h := 0; h < 24; h++ {
		st.Wait(3600)
		if _, err := scr.Scrub(); err != nil {
			return coverage, err
		}
	}
	coverage[0] = scr.WordCoverage(truth, st)

	st, err = spec.NewStation()
	if err != nil {
		return coverage, err
	}
	prof, err := core.Reach(st, 2.048, core.ReachConditions{DeltaInterval: 0.25},
		core.Options{Iterations: 16, FreshRandomPerIteration: true})
	if err != nil {
		return coverage, err
	}
	coverage[1] = core.Coverage(prof.Failures, core.Truth(st, 2.048, 45))
	return coverage, nil
}
