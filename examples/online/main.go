// Online REAPER (paper Section 7.1): the firmware manager reprofiles the
// chip on a cadence derived from the Equation-7 longevity model, installs
// each profile into ArchShield, preserves resident data across rounds
// (footnote 4's save/restore), and keeps a system running at a 1024 ms
// refresh interval correct across several simulated days — while reporting
// the measured profiling overhead, the empirical counterpart of Figure 11.
package main

import (
	"context"
	"fmt"
	"log"

	"reaper"
	"reaper/internal/core"
	"reaper/internal/ecc"
	"reaper/internal/firmware"
	"reaper/internal/longevity"
	"reaper/internal/mitigate"
)

const (
	target   = 1.024
	simHours = 72
)

func main() {
	st, err := reaper.NewStation(reaper.ChipConfig{CapacityBits: 128 << 20, Seed: 99})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chip: %v, running at %.0fms refresh for %d simulated hours\n\n",
		st.Device().Geometry(), target*1000, simHours)

	shield, err := mitigate.NewArchShield(st, 0.05)
	if err != nil {
		log.Fatal(err)
	}

	// Resident data: words that contain true failing cells — the hardest
	// data to keep alive at the extended interval.
	truth := reaper.Truth(st, target, reaper.RefTempC)
	geom := st.Device().Geometry()
	var victims []mitigate.WordAddr
	seen := map[mitigate.WordAddr]bool{}
	for _, bit := range truth.Sorted() {
		a := geom.AddrOf(bit)
		wa := mitigate.WordAddr{Bank: a.Bank, Row: a.Row, Word: a.Word}
		if !seen[wa] && !shield.InReservedSegment(wa) {
			seen[wa] = true
			victims = append(victims, wa)
		}
		if len(victims) >= 80 {
			break
		}
	}
	payload := func(i int) uint64 { return 0xdeadbeef00000000 | uint64(i) }
	writeData := func() error {
		for i, wa := range victims {
			if err := shield.Write(wa, payload(i)); err != nil {
				return err
			}
		}
		return nil
	}

	mgr, err := firmware.New(st, firmware.Config{
		TargetInterval: target,
		Reach:          core.ReachConditions{DeltaInterval: 0.75},
		Profiling:      core.Options{Iterations: 24, FreshRandomPerIteration: true},
		Longevity: &longevity.Model{
			Code:       ecc.SECDED(),
			TargetUBER: ecc.UBERConsumer,
			Bytes:      2 << 30, // notional production module
			Vendor:     reaper.VendorB(),
			TempC:      reaper.RefTempC,
		},
		Install:    shield.Install,
		AfterRound: writeData,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reprofiling cadence from Eq 7 (99%% coverage, /2 safety): every %.1f hours\n",
		mgr.CadenceHours())

	if err := mgr.RunFor(context.Background(), simHours, 1800); err != nil {
		log.Fatal(err)
	}

	corrupted := 0
	for i, wa := range victims {
		got, err := shield.Read(wa)
		if err != nil {
			log.Fatal(err)
		}
		if got != payload(i) {
			corrupted++
		}
	}
	fmt.Printf("\nafter %d simulated hours:\n", simHours)
	fmt.Printf("  profiling rounds:           %d\n", mgr.Rounds())
	fmt.Printf("  cumulative profile size:    %d cells\n", mgr.Profile().Len())
	fmt.Printf("  ArchShield words remapped:  %d\n", shield.RemappedWords())
	fmt.Printf("  measured profiling overhead: %.3f%% of system time\n", mgr.OverheadFraction()*100)
	fmt.Printf("  corrupted resident words:   %d / %d\n", corrupted, len(victims))
}
