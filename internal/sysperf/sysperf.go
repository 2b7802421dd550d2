// Package sysperf is a trace-driven multi-core system performance simulator —
// the Ramulator-equivalent substrate behind the paper's end-to-end
// evaluation (Section 7.2, Table 2). It models:
//
//   - N cores, each executing a synthetic benchmark stream (workload
//     package) at its compute-bound IPC, with a bounded number of
//     outstanding misses (MSHRs) and a fraction of serializing
//     (dependent) misses;
//   - a multi-channel DRAM subsystem with per-bank row buffers under the
//     open-row policy and FR-FCFS request scheduling (Table 2): row hits
//     cost column access only and are prioritized over older misses;
//   - refresh interference: each channel issues an all-bank refresh every
//     tREFI/8192 and is blocked for tRFC, which grows with chip density —
//     the mechanism that makes refresh overhead (and the benefit of longer
//     refresh intervals) scale with capacity.
//
// Multi-core results are reported as weighted speedup (sum of each core's
// shared-mode IPC over its alone-mode IPC), the paper's metric.
package sysperf

import (
	"fmt"
	"sync"

	"reaper/internal/rng"
	"reaper/internal/workload"
)

// The modelled system (the paper's Table 2): 4 GHz cores with 8 MSHRs each,
// and LPDDR4-3200 with 4 channels of 8 banks. Rows interleave across
// channels, then across a channel's banks.
const (
	cpuFreqGHz = 4
	mshrs      = 8
	// dependentFraction is the fraction of misses a core cannot overlap
	// (pointer chasing, branch-feeding loads); they serialize execution.
	dependentFraction = 0.35
	channels          = 4
	banksPerChannel   = 8
)

// LPDDR4-3200 timings in nanoseconds.
const (
	tRCD   = 18 // activate to column command
	tRP    = 18 // precharge
	tCL    = 17 // column access latency
	tBURST = 10 // data burst
)

// trfcForChip returns the all-bank refresh command duration in nanoseconds
// for a chip density. The values follow the projection that refresh latency
// grows with capacity (the scaling trend the paper and RAIDR highlight as
// the core of the refresh problem).
func trfcForChip(chipGb int) (float64, error) {
	switch chipGb {
	case 8:
		return 350, nil
	case 16:
		return 530, nil
	case 32:
		return 800, nil
	case 64:
		return 1200, nil
	}
	return 0, fmt.Errorf("sysperf: unsupported chip density %dGb", chipGb)
}

// Config describes one simulation of the modelled system.
type Config struct {
	// TRFC is the all-bank refresh command duration in nanoseconds, which
	// grows with chip density.
	TRFC float64
	// TREFI is the per-row refresh interval in seconds; <= 0 disables
	// refresh entirely.
	TREFI float64
	// InstructionsPerCore is the simulation length.
	InstructionsPerCore int64
	// Seed drives the workload streams and dependence sampling.
	Seed uint64
}

// DefaultConfig returns the paper's Table 2 system for the given chip
// density and refresh interval. The caller sets the simulation length and
// seed.
func DefaultConfig(chipGb int, tREFI float64) (Config, error) {
	trfc, err := trfcForChip(chipGb)
	if err != nil {
		return Config{}, err
	}
	return Config{TRFC: trfc, TREFI: tREFI}, nil
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.InstructionsPerCore <= 0 {
		return fmt.Errorf("sysperf: invalid config %+v", c)
	}
	return nil
}

// refPeriodNs returns the time between refresh commands per channel, or 0
// when refresh is disabled. JEDEC distributes 8192 refresh commands across
// one tREFI window.
func (c Config) refPeriodNs() float64 {
	if c.TREFI <= 0 {
		return 0
	}
	return c.TREFI * 1e9 / 8192
}

// dram models the shared DRAM subsystem state during one simulation.
type dram struct {
	cfg       Config
	bankReady [channels][banksPerChannel]float64 // ready time (ns)
	openRow   [channels][banksPerChannel]uint64  // open row (+1; 0 = none)
	stats     TrafficStats

	// Queued-engine state (see engine.go).
	pending   [channels][]pendingReq
	completed map[int64]float64
	channelOf map[int64]int
	nextID    int64
}

// TrafficStats counts DRAM command traffic for the power model.
type TrafficStats struct {
	Reads       int64
	Writes      int64
	Activations int64
	RowHits     int64
}

func newDRAM(cfg Config) *dram {
	return &dram{
		cfg:       cfg,
		completed: make(map[int64]float64),
		channelOf: make(map[int64]int),
	}
}

// skipRefreshWindows pushes a start time past any refresh windows on the
// channel. Refresh window k occupies [k*P, k*P + tRFC).
func (d *dram) skipRefreshWindows(ch int, start float64) float64 {
	p := d.cfg.refPeriodNs()
	if p <= 0 {
		return start
	}
	for {
		k := float64(int64(start / p))
		winStart := k * p
		winEnd := winStart + d.cfg.TRFC
		if start >= winStart && start < winEnd {
			start = winEnd
			continue
		}
		return start
	}
}

// core models one core's execution state.
type core struct {
	stream      *workload.Stream
	src         *rng.Source
	timeNs      float64
	instrDone   int64
	outstanding []int64 // ids of in-flight misses (<= mshrs)
}

// retireEarliest resolves every outstanding miss, blocks the core until the
// earliest completion, and frees that MSHR.
func (c *core) retireEarliest(mem *dram, resolved map[int64]float64) {
	bestIdx := -1
	var bestDone float64
	for i, id := range c.outstanding {
		done, ok := resolved[id]
		if !ok {
			done = mem.resolve(id)
			resolved[id] = done
		}
		if bestIdx < 0 || done < bestDone {
			bestIdx, bestDone = i, done
		}
	}
	if bestIdx < 0 {
		return
	}
	delete(resolved, c.outstanding[bestIdx])
	c.outstanding = append(c.outstanding[:bestIdx], c.outstanding[bestIdx+1:]...)
	if bestDone > c.timeNs {
		c.timeNs = bestDone
	}
}

// Result reports one simulation's outcome.
type Result struct {
	// IPC is the per-core achieved instructions per cycle.
	IPC []float64
	// CycleCount is the per-core cycles to finish its instruction budget.
	Cycles []float64
	// Traffic is the DRAM command volume of the run.
	Traffic TrafficStats
	// DurationSec is the simulated wall time of the longest core.
	DurationSec float64
}

// Simulate runs the mix to completion and returns per-core IPCs.
func Simulate(mix []workload.Spec, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if len(mix) == 0 {
		return Result{}, fmt.Errorf("sysperf: empty mix")
	}
	mem := newDRAM(cfg)
	cores := make([]*core, len(mix))
	for i, spec := range mix {
		stream, err := workload.NewStream(spec, cfg.Seed+uint64(i)*7919)
		if err != nil {
			return Result{}, err
		}
		cores[i] = &core{
			stream: stream,
			src:    rng.New(cfg.Seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15),
		}
	}
	// resolved caches completion times of in-flight misses that were
	// scheduled while chasing some other request's completion.
	resolved := make(map[int64]float64)

	active := len(cores)
	for active > 0 {
		// Advance the core that is earliest in simulated time, so the
		// shared request queues see issues in approximately global order.
		var c *core
		for _, cand := range cores {
			if cand.instrDone >= cfg.InstructionsPerCore {
				continue
			}
			if c == nil || cand.timeNs < c.timeNs {
				c = cand
			}
		}
		req := c.stream.Next()
		c.timeNs += float64(req.InstrGap) / c.stream.Spec().BaseIPC / cpuFreqGHz
		c.instrDone += int64(req.InstrGap)

		if c.instrDone >= cfg.InstructionsPerCore {
			// Drain outstanding misses.
			for len(c.outstanding) > 0 {
				c.retireEarliest(mem, resolved)
			}
			active--
			continue
		}

		// MSHR limit: block until the earliest in-flight miss returns.
		if len(c.outstanding) >= mshrs {
			c.retireEarliest(mem, resolved)
		}
		id := mem.enqueue(c.timeNs, req.Row, req.Write)
		if c.src.Bernoulli(dependentFraction) {
			// Serializing miss: execution waits for the data.
			done := mem.resolve(id)
			if done > c.timeNs {
				c.timeNs = done
			}
		} else {
			c.outstanding = append(c.outstanding, id)
		}
	}

	res := Result{
		IPC:     make([]float64, len(cores)),
		Cycles:  make([]float64, len(cores)),
		Traffic: mem.stats,
	}
	for i, c := range cores {
		cycles := c.timeNs * cpuFreqGHz
		res.Cycles[i] = cycles
		res.IPC[i] = float64(cfg.InstructionsPerCore) / cycles
		if sec := c.timeNs * 1e-9; sec > res.DurationSec {
			res.DurationSec = sec
		}
	}
	return res, nil
}

// WeightedSpeedup evaluates the paper's multiprogrammed metric: each core's
// shared-mode IPC divided by its alone-mode IPC on the same configuration,
// summed over cores. aloneIPC supplies (and may cache) the alone-mode IPC
// per spec.
func WeightedSpeedup(shared Result, mix []workload.Spec, aloneIPC func(workload.Spec) (float64, error)) (float64, error) {
	if len(shared.IPC) != len(mix) {
		return 0, fmt.Errorf("sysperf: result/mix length mismatch")
	}
	ws := 0.0
	for i, spec := range mix {
		alone, err := aloneIPC(spec)
		if err != nil {
			return 0, err
		}
		if alone <= 0 {
			return 0, fmt.Errorf("sysperf: non-positive alone IPC for %s", spec.Name)
		}
		ws += shared.IPC[i] / alone
	}
	return ws, nil
}

// AloneIPCCache memoizes alone-mode runs per (spec, config) so mix sweeps do
// not repeat them. It is safe for concurrent use: Simulate is a pure
// function of (spec, config), so losing a fill race just recomputes the
// same value — cached results are independent of call order.
type AloneIPCCache struct {
	cfg   Config
	mu    sync.Mutex
	cache map[string]float64
}

// NewAloneIPCCache builds a cache bound to one configuration.
func NewAloneIPCCache(cfg Config) *AloneIPCCache {
	return &AloneIPCCache{cfg: cfg, cache: make(map[string]float64)}
}

// IPC returns the alone-mode IPC of a spec under the cache's configuration.
func (a *AloneIPCCache) IPC(spec workload.Spec) (float64, error) {
	a.mu.Lock()
	v, ok := a.cache[spec.Name]
	a.mu.Unlock()
	if ok {
		return v, nil
	}
	res, err := Simulate([]workload.Spec{spec}, a.cfg)
	if err != nil {
		return 0, err
	}
	a.mu.Lock()
	a.cache[spec.Name] = res.IPC[0]
	a.mu.Unlock()
	return res.IPC[0], nil
}
