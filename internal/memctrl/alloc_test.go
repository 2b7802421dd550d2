package memctrl_test

import (
	"testing"

	"reaper/internal/dram"
	"reaper/internal/memctrl"
	"reaper/internal/patterns"
)

// TestOneChipStationAllocatesLikeItsDevice: a one-chip station's Algorithm
// 1 pass (write, refresh off, wait, refresh on, read) allocates exactly what
// the bare device allocates for the same calls at the same simulated times.
// The station's own bookkeeping, including the chip fan-out a module needs,
// must cost a one-chip station nothing.
func TestOneChipStationAllocatesLikeItsDevice(t *testing.T) {
	newDev := func() *dram.Device {
		d, err := dram.NewDevice(dram.Config{
			Geometry:  dram.GeometryForBits(8 << 20),
			Vendor:    dram.VendorB(),
			Seed:      3,
			WeakScale: 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	const wait = 2.048
	p := patterns.Random(9)
	st, err := memctrl.NewStation(nil, newDev())
	if err != nil {
		t.Fatal(err)
	}
	station := testing.AllocsPerRun(20, func() {
		st.WritePattern(p)
		st.DisableRefresh()
		st.Wait(wait)
		st.EnableRefresh()
		st.ReadCompare()
	})

	dev := newDev()
	dev.SetAutoRefresh(memctrl.DefaultTREFI)
	pass := memctrl.PassSeconds(dev.Geometry().TotalBytes())
	var now float64
	bare := testing.AllocsPerRun(20, func() {
		now += pass
		dev.WriteAll(p, now)
		dev.SetAutoRefresh(0)
		now += wait
		dev.RestoreAll(now)
		dev.SetAutoRefresh(memctrl.DefaultTREFI)
		now += pass
		dev.ReadCompareAll(now)
	})
	if now != st.Clock() {
		t.Fatalf("bare device ran to %v s, station to %v s", now, st.Clock())
	}
	t.Logf("allocations per pass: station %v, bare device %v", station, bare)
	if station != bare {
		t.Errorf("one-chip station pass allocates %v times, its bare device %v", station, bare)
	}
}
