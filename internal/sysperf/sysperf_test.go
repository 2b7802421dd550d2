package sysperf

import (
	"math"
	"testing"

	"reaper/internal/workload"
)

func cfgFor(t testing.TB, chipGb int, tREFI float64) Config {
	t.Helper()
	cfg, err := DefaultConfig(chipGb, tREFI)
	if err != nil {
		t.Fatal(err)
	}
	cfg.InstructionsPerCore = 500_000
	return cfg
}

// benchmark returns the suite benchmark with the given name.
func benchmark(t testing.TB, name string) workload.Spec {
	t.Helper()
	for _, s := range workload.Benchmarks() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("unknown benchmark %q", name)
	return workload.Spec{}
}

func mixNamed(t testing.TB, names ...string) []workload.Spec {
	t.Helper()
	mix := make([]workload.Spec, len(names))
	for i, n := range names {
		mix[i] = benchmark(t, n)
	}
	return mix
}

func TestTimingForChip(t *testing.T) {
	prev := 0.0
	for _, gb := range []int{8, 16, 32, 64} {
		tm, err := TimingForChip(gb)
		if err != nil {
			t.Fatal(err)
		}
		if tm.TRFC <= prev {
			t.Errorf("tRFC must grow with density: %v at %dGb", tm.TRFC, gb)
		}
		prev = tm.TRFC
	}
	if _, err := TimingForChip(7); err == nil {
		t.Error("unsupported density not rejected")
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := cfgFor(t, 8, 0.064)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.MSHRs = 0
	if bad.Validate() == nil {
		t.Error("zero MSHRs not rejected")
	}
	bad = cfg
	bad.DependentFraction = 2
	if bad.Validate() == nil {
		t.Error("dependent fraction > 1 not rejected")
	}
	bad = cfg
	bad.Timing.TRCD = 0
	if bad.Validate() == nil {
		t.Error("zero tRCD not rejected")
	}
}

func TestSimulateBasics(t *testing.T) {
	mix := mixNamed(t, "mcf", "gcc", "lbm", "povray")
	res, err := Simulate(mix, cfgFor(t, 8, 0.064))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IPC) != 4 {
		t.Fatalf("IPC count = %d", len(res.IPC))
	}
	for i, ipc := range res.IPC {
		if ipc <= 0 || ipc > mix[i].BaseIPC {
			t.Errorf("core %d (%s) IPC = %v, must be in (0, %v]", i, mix[i].Name, ipc, mix[i].BaseIPC)
		}
	}
	if res.Traffic.Reads+res.Traffic.Writes == 0 {
		t.Error("no DRAM traffic recorded")
	}
	if res.Traffic.Activations == 0 || res.Traffic.RowHits == 0 {
		t.Errorf("traffic should include both activations and row hits: %+v", res.Traffic)
	}
	if res.DurationSec <= 0 {
		t.Error("non-positive duration")
	}
	if _, err := Simulate(nil, cfgFor(t, 8, 0.064)); err == nil {
		t.Error("empty mix not rejected")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	mix := mixNamed(t, "mcf", "soplex")
	cfg := cfgFor(t, 8, 0.064)
	a, err := Simulate(mix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(mix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.IPC {
		if a.IPC[i] != b.IPC[i] {
			t.Fatal("simulation not deterministic")
		}
	}
}

func TestMemoryBoundCoresSufferMore(t *testing.T) {
	mix := mixNamed(t, "mcf", "povray")
	res, err := Simulate(mix, cfgFor(t, 8, 0.064))
	if err != nil {
		t.Fatal(err)
	}
	mcfSlowdown := res.IPC[0] / mix[0].BaseIPC
	povraySlowdown := res.IPC[1] / mix[1].BaseIPC
	if mcfSlowdown >= povraySlowdown {
		t.Errorf("memory-bound mcf retained %v of its IPC vs compute-bound povray's %v",
			mcfSlowdown, povraySlowdown)
	}
}

func TestLongerRefreshIntervalHelps(t *testing.T) {
	mix := mixNamed(t, "mcf", "lbm", "milc", "libquantum")
	base, err := Simulate(mix, cfgFor(t, 64, 0.064))
	if err != nil {
		t.Fatal(err)
	}
	relaxed, err := Simulate(mix, cfgFor(t, 64, 1.024))
	if err != nil {
		t.Fatal(err)
	}
	noref, err := Simulate(mix, cfgFor(t, 64, 0))
	if err != nil {
		t.Fatal(err)
	}
	sum := func(r Result) float64 {
		s := 0.0
		for _, v := range r.IPC {
			s += v
		}
		return s
	}
	if !(sum(base) < sum(relaxed) && sum(relaxed) <= sum(noref)*1.0001) {
		t.Errorf("throughput not ordered with refresh relief: 64ms=%v 1024ms=%v noref=%v",
			sum(base), sum(relaxed), sum(noref))
	}
	// On 64Gb chips the no-refresh gain must be material (the paper sees
	// ~19% weighted-speedup gains; demand >5% throughput here).
	if g := sum(noref)/sum(base) - 1; g < 0.05 {
		t.Errorf("no-refresh throughput gain on 64Gb = %v, want > 0.05", g)
	}
}

func TestRefreshHurtsMoreOnDenserChips(t *testing.T) {
	mix := mixNamed(t, "mcf", "lbm", "milc", "libquantum")
	gain := func(gb int) float64 {
		base, err := Simulate(mix, cfgFor(t, gb, 0.064))
		if err != nil {
			t.Fatal(err)
		}
		noref, err := Simulate(mix, cfgFor(t, gb, 0))
		if err != nil {
			t.Fatal(err)
		}
		s := func(r Result) float64 {
			v := 0.0
			for _, x := range r.IPC {
				v += x
			}
			return v
		}
		return s(noref)/s(base) - 1
	}
	g8, g64 := gain(8), gain(64)
	if g64 <= g8 {
		t.Errorf("refresh relief gain should grow with density: 8Gb=%v 64Gb=%v", g8, g64)
	}
}

func TestWeightedSpeedup(t *testing.T) {
	mix := mixNamed(t, "mcf", "gcc")
	cfg := cfgFor(t, 8, 0.064)
	shared, err := Simulate(mix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewAloneIPCCache(cfg)
	ws, err := WeightedSpeedup(shared, mix, cache.IPC)
	if err != nil {
		t.Fatal(err)
	}
	// Each term is <= ~1 (sharing cannot beat running alone, modulo noise),
	// so WS for 2 cores lies in (0, 2.1].
	if ws <= 0 || ws > 2.1 {
		t.Errorf("weighted speedup = %v out of range", ws)
	}
	// Mismatched lengths rejected.
	if _, err := WeightedSpeedup(shared, mix[:1], cache.IPC); err == nil {
		t.Error("length mismatch not rejected")
	}
}

func TestAloneIPCCacheMemoizes(t *testing.T) {
	cfg := cfgFor(t, 8, 0.064)
	cache := NewAloneIPCCache(cfg)
	spec := benchmark(t, "mcf")
	a, err := cache.IPC(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cache.IPC(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cache returned different values")
	}
	if math.IsNaN(a) || a <= 0 {
		t.Errorf("alone IPC = %v", a)
	}
}

func TestRefreshWindowSkipping(t *testing.T) {
	cfg := cfgFor(t, 64, 0.064)
	d := newDRAM(cfg)
	p := cfg.refPeriodNs()
	// A request landing inside the first refresh window must be pushed to
	// its end.
	if got := d.skipRefreshWindows(0, cfg.Timing.TRFC/2); got != cfg.Timing.TRFC {
		t.Errorf("start inside window -> %v, want %v", got, cfg.Timing.TRFC)
	}
	// A request between windows is untouched.
	mid := p / 2
	if got := d.skipRefreshWindows(0, mid); got != mid {
		t.Errorf("start between windows -> %v, want %v", got, mid)
	}
	// With refresh disabled, nothing moves.
	cfg2 := cfgFor(t, 64, 0)
	d2 := newDRAM(cfg2)
	if got := d2.skipRefreshWindows(0, 123); got != 123 {
		t.Error("disabled refresh still displaced request")
	}
}

func TestFRFCFSBeatsFCFSUnderContention(t *testing.T) {
	// With several cores hammering the same channels, row-hit-first
	// scheduling must not lose throughput versus strict arrival order —
	// and for row-friendly mixes it should win.
	mix := mixNamed(t, "libquantum", "lbm", "libquantum", "lbm")
	fr := cfgFor(t, 8, 0.064)
	fc := fr
	fc.Scheduler = SchedFCFS
	a, err := Simulate(mix, fr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(mix, fc)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(r Result) float64 {
		s := 0.0
		for _, v := range r.IPC {
			s += v
		}
		return s
	}
	if sum(a) < sum(b)*0.999 {
		t.Errorf("FR-FCFS throughput %v below FCFS %v", sum(a), sum(b))
	}
	// FR-FCFS must convert more accesses into row hits.
	if a.Traffic.RowHits < b.Traffic.RowHits {
		t.Errorf("FR-FCFS row hits %d below FCFS %d", a.Traffic.RowHits, b.Traffic.RowHits)
	}
	t.Logf("FR-FCFS: IPC %.3f, hits %d; FCFS: IPC %.3f, hits %d",
		sum(a), a.Traffic.RowHits, sum(b), b.Traffic.RowHits)
}

func TestSchedulerReordersRowHits(t *testing.T) {
	// Direct engine check: with a miss and a row hit both queued behind a
	// busy bank, FR-FCFS services the hit first; FCFS services by age.
	cfg := cfgFor(t, 8, 0)
	cfg.Channels = 1
	cfg.BanksPerChannel = 1
	mk := func(pol SchedulerPolicy) *dram {
		c := cfg
		c.Scheduler = pol
		d := newDRAM(c)
		// Open row 0 and occupy the bank.
		d.service(0, 0, false)
		return d
	}

	// FR-FCFS: enqueue miss (row 1, older) then hit (row 0, younger).
	d := mk(SchedFRFCFS)
	missID := d.enqueue(1, 1, false)
	hitID := d.enqueue(2, 0, false)
	hitDone := d.resolve(hitID)
	missDone := d.resolve(missID)
	if hitDone >= missDone {
		t.Errorf("FR-FCFS did not prioritize the row hit: hit %v, miss %v", hitDone, missDone)
	}

	// FCFS: the older miss goes first.
	d = mk(SchedFCFS)
	missID = d.enqueue(1, 1, false)
	hitID = d.enqueue(2, 0, false)
	hitDone = d.resolve(hitID)
	missDone = d.resolve(missID)
	if missDone >= hitDone {
		t.Errorf("FCFS did not honour arrival order: miss %v, hit %v", missDone, hitDone)
	}
}

func TestClosedRowPolicy(t *testing.T) {
	mix := mixNamed(t, "libquantum") // very row-buffer friendly
	open := cfgFor(t, 8, 0)
	closed := open
	closed.ClosedRowPolicy = true
	ro, err := Simulate(mix, open)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := Simulate(mix, closed)
	if err != nil {
		t.Fatal(err)
	}
	// Closed-row never records row hits and pays more per access for a
	// locality-heavy workload.
	if rc.Traffic.RowHits != 0 {
		t.Errorf("closed-row policy recorded %d row hits", rc.Traffic.RowHits)
	}
	if ro.Traffic.RowHits == 0 {
		t.Error("open-row policy recorded no row hits for libquantum")
	}
	if rc.IPC[0] >= ro.IPC[0] {
		t.Errorf("closed-row IPC %v not below open-row %v for a row-friendly workload",
			rc.IPC[0], ro.IPC[0])
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	cfg := cfgFor(t, 8, 0) // no refresh noise
	d := newDRAM(cfg)
	// First access to row 0: a miss (activation).
	t1 := d.service(0, 0, false)
	// Second access, same row, after the bank is free: a hit.
	t2start := t1 + 100
	t2 := d.service(t2start, 0, false) - t2start
	missLatency := t1
	if t2 >= missLatency {
		t.Errorf("row hit latency %v not below miss latency %v", t2, missLatency)
	}
	if d.stats.RowHits != 1 || d.stats.Activations != 1 {
		t.Errorf("stats wrong: %+v", d.stats)
	}
}
