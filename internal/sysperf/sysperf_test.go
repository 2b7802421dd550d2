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
	cfg.Seed = 1
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

// service enqueues one request and immediately resolves it.
func (d *dram) service(arrivalNs float64, row uint64, write bool) float64 {
	return d.resolve(d.enqueue(arrivalNs, row, write))
}

func TestTimingForChip(t *testing.T) {
	prev := 0.0
	for _, gb := range []int{8, 16, 32, 64} {
		trfc, err := trfcForChip(gb)
		if err != nil {
			t.Fatal(err)
		}
		if trfc <= prev {
			t.Errorf("tRFC must grow with density: %v at %dGb", trfc, gb)
		}
		prev = trfc
	}
	if _, err := trfcForChip(7); err == nil {
		t.Error("unsupported density not rejected")
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := cfgFor(t, 8, 0.064)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.InstructionsPerCore = 0
	if bad.Validate() == nil {
		t.Error("zero instructions per core not rejected")
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
	if got := d.skipRefreshWindows(0, cfg.TRFC/2); got != cfg.TRFC {
		t.Errorf("start inside window -> %v, want %v", got, cfg.TRFC)
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

func TestSchedulerReordersRowHits(t *testing.T) {
	// Direct engine check: with a miss and a row hit both queued behind a
	// busy bank, FR-FCFS services the younger hit first. Rows 0 and 32 both
	// map to channel 0, bank 0 (rows interleave over 4 channels, then 8
	// banks), as rows 0 and 1 of that bank.
	d := newDRAM(cfgFor(t, 8, 0))
	// Open row 0 and occupy the bank.
	d.service(0, 0, false)
	missID := d.enqueue(1, 32, false)
	hitID := d.enqueue(2, 0, false)
	hitDone := d.resolve(hitID)
	missDone := d.resolve(missID)
	if hitDone >= missDone {
		t.Errorf("FR-FCFS did not prioritize the row hit: hit %v, miss %v", hitDone, missDone)
	}
	if d.stats.RowHits != 1 || d.stats.Activations != 2 {
		t.Errorf("stats wrong: %+v", d.stats)
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

// TestSimulateBitPinned pins one 4-core mix's IPCs, cycles and traffic at 8
// and 64 Gb bit for bit.
func TestSimulateBitPinned(t *testing.T) {
	mix := mixNamed(t, "mcf", "gcc", "lbm", "povray")
	for _, tc := range []struct {
		chipGb  int
		ipc     []float64
		cycles  []float64
		traffic TrafficStats
	}{
		{8,
			[]float64{0.2471851787766807, 0.8467715189340462, 0.31593380554906136, 2.2410006585094244},
			[]float64{404554.99999999977, 118095.61111111114, 316522, 44622.92307692307},
			TrafficStats{Reads: 4109, Writes: 2110, Activations: 3962, RowHits: 2257}},
		{64,
			[]float64{0.21584519582555403, 0.7332011398833722, 0.27775386008427067, 1.9220675532819305},
			[]float64{463294.99999999977, 136388.22222222222, 360030.9999999998, 52027.30769230769},
			TrafficStats{Reads: 4109, Writes: 2110, Activations: 3971, RowHits: 2248}},
	} {
		cfg := cfgFor(t, tc.chipGb, 0.064)
		cfg.InstructionsPerCore = 100_000
		res, err := Simulate(mix, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range mix {
			if math.Float64bits(res.IPC[i]) != math.Float64bits(tc.ipc[i]) ||
				math.Float64bits(res.Cycles[i]) != math.Float64bits(tc.cycles[i]) {
				t.Errorf("%dGb core %d: IPC %v cycles %v, want %v and %v",
					tc.chipGb, i, res.IPC[i], res.Cycles[i], tc.ipc[i], tc.cycles[i])
			}
		}
		if res.Traffic != tc.traffic {
			t.Errorf("%dGb traffic = %+v, want %+v", tc.chipGb, res.Traffic, tc.traffic)
		}
	}
}
