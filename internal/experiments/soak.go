package experiments

// Long-horizon soak campaigns: a fleet of chips runs for simulated weeks at
// an extended refresh interval while a fault injector drives the Section
// 2.3 hazards against them, and the firmware resilience controller (or,
// for the baseline, nothing) defends the ECC budget. The survival report
// quantifies what the paper argues qualitatively: active profiling plus a
// closed loop on scrub telemetry keeps the uncorrectable bit error rate
// inside the target, while an open-loop system accumulates escapes until
// SECDED is overwhelmed.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"

	"reaper/internal/dram"
	"reaper/internal/faultinject"
	"reaper/internal/firmware"
	"reaper/internal/memctrl"
	"reaper/internal/mitigate"
	"reaper/internal/rng"
	"reaper/internal/telemetry"
)

// SoakConfig configures a fleet soak campaign.
type SoakConfig struct {
	// Chips is the fleet size; each chip gets a derived seed, its own
	// station, injector, mitigation stack, and firmware manager.
	Chips int `json:"chips"`
	// Seed drives the whole campaign (chip seeds and scenario seeds are
	// split from it).
	Seed uint64 `json:"seed"`
	// Hours is the soak horizon in simulated hours.
	Hours float64 `json:"hours"`
	// WindowHours is the scrub window (one ECC sweep + telemetry report
	// per window). Zero means 1; negative is an error.
	WindowHours float64 `json:"window_hours"`
	// TargetInterval is the extended refresh interval under test.
	TargetInterval float64 `json:"target_interval"`
	// CadenceHours is the open-loop reprofiling cadence. Zero means 24;
	// negative is an error.
	CadenceHours float64 `json:"cadence_hours"`
	// Scenario overrides the fault scenario; nil uses DefaultScenario
	// (per-chip seeds are always re-derived from Seed).
	Scenario *faultinject.Scenario `json:"scenario,omitempty"`
	// Controller enables the firmware resilience controller. Off = the
	// open-loop baseline arm.
	Controller bool `json:"controller"`
	// MaxUBER is the survival criterion: a chip survives if its
	// cumulative uncorrectable bit error rate stays at or below this. Zero
	// means 1e-4; negative is an error.
	MaxUBER float64 `json:"max_uber"`
	// Workers sizes the fleet worker pool (0 = NumCPU). Results are
	// identical at any worker count.
	Workers int `json:"workers"`
	// ShardSize, when positive, caps how many chips hold dense simulator
	// state at once by clamping the worker pool to it, as in
	// PopulationSweep: a chip is live only while its job runs, so at most
	// min(workers, ShardSize) devices are ever live. Reports are
	// byte-identical at every shard size, and a checkpoint directory
	// written at one shard size resumes cleanly at another (ShardSize does
	// not join the campaign identity because it cannot shape results).
	// <= 0 leaves the pool at Workers.
	ShardSize int `json:"shard_size,omitempty"`
	// Chip is the base chip spec; Seed and Chamber are overridden per
	// chip (soak chips are chamber-less so injected thermal excursions
	// control the ambient directly).
	Chip ChipSpec `json:"-"`
	// Telemetry, when non-nil, instruments the campaign: every chip's
	// firmware manager, fault injector, and scrubber record into a registry
	// of the chip's own, merged into this one as the chip's job returns;
	// each chip gets its own trace ring, and the final report embeds the
	// registry snapshot plus the merged fleet timeline. The snapshot is
	// byte-identical at any worker count (see internal/telemetry). Nil
	// (the default) leaves the report exactly as before.
	Telemetry *telemetry.Registry `json:"-"`
	// ShardAttempts bounds per-chip fault tolerance. Zero keeps the
	// fail-fast behavior: the first chip error fails the campaign. With
	// ShardAttempts >= 1, a failing or panicking chip is tried up to
	// ShardAttempts times, each retry restarting it from its newest save
	// (from the start without a checkpoint Dir), and then quarantined: the
	// campaign completes with PartialCoverage set and the poisoned chips
	// enumerated in the report instead of aborting. The attempts bound a
	// chip's whole run, not each stretch between its saves.
	ShardAttempts int `json:"-"`
	// Checkpoint, when non-nil with a Dir, makes every chip save its state
	// as it runs (see CheckpointOptions).
	Checkpoint *CheckpointOptions `json:"-"`
}

// DefaultSoakConfig is the standard two-week fleet soak at 1024 ms under
// the default fault scenario.
func DefaultSoakConfig(seed uint64) SoakConfig {
	return SoakConfig{
		Chips:          4,
		Seed:           seed,
		Hours:          14 * 24,
		WindowHours:    1,
		TargetInterval: 1.024,
		CadenceHours:   24,
		Controller:     true,
		MaxUBER:        1e-4,
		Chip:           ChipSpec{Bits: 8 << 20, WeakScale: 20, Vendor: dram.VendorB()},
	}
}

// Every soak chip reserves soakSpareFraction of its words as the ArchShield
// spare segment and keeps soakResidentWords words of resident data live.
const (
	soakSpareFraction = 0.04
	soakResidentWords = 96
)

func (c *SoakConfig) fillDefaults() error {
	if c.Chips <= 0 {
		return fmt.Errorf("soak: need at least one chip")
	}
	if !(c.Hours > 0) {
		return fmt.Errorf("soak: non-positive horizon")
	}
	if !(c.TargetInterval > 0) {
		return fmt.Errorf("soak: non-positive target interval")
	}
	if c.ShardSize < 0 {
		return fmt.Errorf("soak: shard size must be non-negative (got %d)", c.ShardSize)
	}
	if !(c.WindowHours >= 0 && c.CadenceHours >= 0 && c.MaxUBER >= 0) {
		return fmt.Errorf("soak: window %v h, cadence %v h and max UBER %v must be non-negative",
			c.WindowHours, c.CadenceHours, c.MaxUBER)
	}
	if c.Checkpoint != nil && c.Checkpoint.EveryWindows < 0 {
		return fmt.Errorf("soak: checkpoint cadence must be non-negative (got %d windows)", c.Checkpoint.EveryWindows)
	}
	if c.WindowHours == 0 {
		c.WindowHours = 1
	}
	if c.CadenceHours == 0 {
		c.CadenceHours = 24
	}
	if c.MaxUBER == 0 {
		c.MaxUBER = 1e-4
	}
	if c.Chip.Bits == 0 {
		c.Chip = DefaultSoakConfig(c.Seed).Chip
	}
	return nil
}

// ChipSoakReport is one chip's survival record.
type ChipSoakReport struct {
	Chip int    `json:"chip"`
	Seed uint64 `json:"seed"`

	Windows          int     `json:"windows"`
	ViolationWindows int     `json:"violation_windows"` // windows with >= 1 UE
	UEEvents         int     `json:"ue_events"`         // word-level UE observations
	CorrectedTotal   int     `json:"corrected_total"`
	WordsScanned     int64   `json:"words_scanned"`
	UBER             float64 `json:"uber"`
	Survived         bool    `json:"survived"`

	Rounds            int     `json:"rounds"`
	EarlyRounds       int     `json:"early_rounds"`
	Aborts            int     `json:"aborts"`
	WidenSteps        int     `json:"widen_steps"`
	DegradeEvents     int     `json:"degrade_events"`
	RecoverEvents     int     `json:"recover_events"`
	FinalDegradeLevel int     `json:"final_degrade_level"`
	FinalIntervalMs   float64 `json:"final_interval_ms"`
	SparesExhausted   bool    `json:"spares_exhausted"`
	ExtendedFraction  float64 `json:"extended_fraction"`

	FaultCounts      map[string]int      `json:"fault_counts"`
	FaultEvents      []faultinject.Event `json:"fault_events"`
	ControllerEvents []firmware.Event    `json:"controller_events"`
}

// SoakReport is the campaign's survival report (serializable to JSON).
type SoakReport struct {
	Chips          int     `json:"chips"`
	Seed           uint64  `json:"seed"`
	Hours          float64 `json:"hours"`
	WindowHours    float64 `json:"window_hours"`
	TargetInterval float64 `json:"target_interval"`
	Controller     bool    `json:"controller"`
	MaxUBER        float64 `json:"max_uber"`

	Survived             bool    `json:"survived"` // every chip within MaxUBER
	WorstUBER            float64 `json:"worst_uber"`
	TotalUEEvents        int     `json:"total_ue_events"`
	TotalViolationWindow int     `json:"total_violation_windows"`
	MeanExtendedFraction float64 `json:"mean_extended_fraction"`

	ChipReports []ChipSoakReport `json:"chip_reports"`

	// Telemetry and TraceEvents are present only when SoakConfig.Telemetry
	// was set: the final metrics snapshot and the fleet trace timeline,
	// merged across chips in (clock, source, seq) order. Both serialize
	// with omitempty so uninstrumented reports are unchanged byte for byte.
	Telemetry   *telemetry.Snapshot `json:"telemetry,omitempty"`
	TraceEvents []telemetry.Event   `json:"trace_events,omitempty"`

	// Quarantined enumerates chips that exhausted their retry budget and
	// were excluded from the campaign (ShardAttempts fault tolerance). When
	// non-empty, PartialCoverage is set and the aggregate statistics cover
	// only the surviving chips. Both fields serialize with omitempty so
	// full-coverage reports are unchanged byte for byte.
	Quarantined     []QuarantinedShard `json:"quarantined,omitempty"`
	PartialCoverage bool               `json:"partial_coverage,omitempty"`
}

// QuarantinedShard records one chip shard that was excluded from the
// campaign after exhausting its retry budget.
type QuarantinedShard struct {
	// Chip is the fleet index of the quarantined shard.
	Chip int `json:"chip"`
	// Seed is the chip's derived campaign seed.
	Seed uint64 `json:"seed"`
	// Windows is how many scrub windows the chip's newest save holds, the
	// point its last attempt restarted from (always 0 in a campaign without
	// a checkpoint Dir, where every attempt starts from construction).
	Windows int `json:"windows"`
	// Attempts is how many times the shard was tried.
	Attempts int `json:"attempts"`
	// Reason is the final failure in its stable form (panic values keep
	// their message but lose the stack, so reports stay deterministic).
	Reason string `json:"reason"`
}

// SoakScenario resolves a named faultinject preset for a soak campaign of
// the given seed. cmd/soak's -scenario flag and a test program's soak stage
// both resolve names here, so a name means the same campaign on either. The
// "default" preset is nil, which leaves every chip on DefaultScenario seeded
// by the same split of its own chip seed.
func SoakScenario(name string, seed uint64) (*faultinject.Scenario, error) {
	return faultinject.NamedScenario(name, scenarioSeed(seed))
}

// scenarioSeed splits the fault-injection seed from a soak seed.
func scenarioSeed(seed uint64) uint64 { return seed ^ 0xFA177 }

// soakSeeds derives the per-chip seeds up front so the fleet order is fixed.
func soakSeeds(cfg SoakConfig) []uint64 {
	root := rng.New(cfg.Seed)
	seeds := make([]uint64, cfg.Chips)
	for i := range seeds {
		seeds[i] = root.Split(uint64(i) + 1).Uint64()
	}
	return seeds
}

// Soak runs the campaign. Chips run concurrently on a worker pool; each
// chip's simulation is fully sequential and seeded independently, so the
// report is bit-for-bit identical at any worker count. With ShardAttempts,
// failing chips are retried and then quarantined instead of aborting the
// campaign; with a Checkpoint Dir, every chip saves as it runs and resumes
// from its newest save (see CheckpointOptions), and Soak may return
// ErrInterrupted.
func Soak(ctx context.Context, cfg SoakConfig) (*SoakReport, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	ctx = telemetry.WithRegistry(ctx, cfg.Telemetry)
	return soakChips(ctx, cfg, soakSeeds(cfg))
}

// assembleSoakReport aggregates the fleet results into the campaign report.
// Quarantined chips, whose results are nil, are excluded from the per-chip
// reports and from every aggregate statistic; coverage is flagged as
// partial.
func assembleSoakReport(cfg SoakConfig, results []*chipSoakResult, quarantined []QuarantinedShard) *SoakReport {
	chips := make([]ChipSoakReport, 0, len(results))
	var traces []telemetry.Trace
	for i, r := range results {
		if r != nil {
			chips = append(chips, r.rep)
			traces = append(traces, telemetry.Trace{Source: "chip" + strconv.Itoa(i), Events: r.trace})
		}
	}
	rep := &SoakReport{
		Chips:           cfg.Chips,
		Seed:            cfg.Seed,
		Hours:           cfg.Hours,
		WindowHours:     cfg.WindowHours,
		TargetInterval:  cfg.TargetInterval,
		Controller:      cfg.Controller,
		MaxUBER:         cfg.MaxUBER,
		Survived:        true,
		ChipReports:     chips,
		Quarantined:     quarantined,
		PartialCoverage: len(quarantined) > 0,
	}
	for _, c := range chips {
		rep.Survived = rep.Survived && c.Survived
		rep.WorstUBER = math.Max(rep.WorstUBER, c.UBER)
		rep.TotalUEEvents += c.UEEvents
		rep.TotalViolationWindow += c.ViolationWindows
		rep.MeanExtendedFraction += c.ExtendedFraction / float64(len(chips))
	}
	if reg := cfg.Telemetry; reg != nil {
		// Campaign-level series are written here, sequentially, after the
		// fleet joins — single-writer gauges, so no chip labels needed.
		reg.Counter("soak_chips_total").Add(int64(cfg.Chips))
		for _, c := range chips {
			if c.Survived {
				reg.Counter("soak_chips_survived_total").Inc()
			}
		}
		reg.Gauge("soak_worst_uber").Set(rep.WorstUBER)
		reg.Gauge("soak_mean_extended_fraction").Set(rep.MeanExtendedFraction)
		rep.Telemetry = reg.Snapshot()
		rep.TraceEvents = telemetry.Merge(traces...)
	}
	return rep
}

// chipSoakResult carries one chip's report plus its trace ring contents
// (nil when the campaign is uninstrumented) back from the worker pool.
type chipSoakResult struct {
	rep   ChipSoakReport
	trace []telemetry.Event
}

// selectResidentWords picks the resident data set: the words whose contents
// are hardest to keep alive at the extended interval, in address order.
//   - words holding VRT cells (they escape profiles in their long state and
//     come back as escapes when a burst forces them low, §2.3.1);
//   - words with >= 2 cells marginal at the target (they only fail when a
//     temperature excursion shortens retention, Equation 1);
//   - words with a true failing cell at the target (profiling finds and
//     remaps these, populating the spare segment with live data).
func selectResidentWords(st *memctrl.Station, shield *mitigate.ArchShield, target float64, limit int) []mitigate.WordAddr {
	g := st.Device().Geometry()
	// Cells come in bit order, which is (bank, row, word) order, so each
	// word's cells are adjacent and the words come out sorted.
	type wordClass struct {
		wa                     mitigate.WordAddr
		vrt, marginal, failing int
	}
	var words []wordClass
	for _, c := range st.Device().Cells(st.Clock()) {
		a := g.AddrOf(c.Bit)
		wa := mitigate.WordAddr{Bank: a.Bank, Row: a.Row, Word: a.Word}
		if shield.InReservedSegment(wa) {
			continue
		}
		if len(words) == 0 || words[len(words)-1].wa != wa {
			words = append(words, wordClass{wa: wa})
		}
		cl := &words[len(words)-1]
		switch {
		case c.VRT:
			cl.vrt++
		case c.Mu <= target*1.25:
			cl.failing++
		case c.Mu <= target*2:
			cl.marginal++
		}
	}
	pick := func(keep func(*wordClass) bool, quota int, out []mitigate.WordAddr) []mitigate.WordAddr {
		for i := range words {
			if quota <= 0 || len(out) >= limit {
				break
			}
			if keep(&words[i]) && !containsAddr(out, words[i].wa) {
				out = append(out, words[i].wa)
				quota--
			}
		}
		return out
	}
	// Half the residency goes to words profiling will find and remap
	// (populating the spare segment with live data — the targeted-arrival
	// channel's substrate); the rest splits between VRT words (§2.3.1
	// escapes) and excursion-marginal words (Equation 1).
	var out []mitigate.WordAddr
	out = pick(func(c *wordClass) bool { return c.failing > 0 }, limit/2, out)
	out = pick(func(c *wordClass) bool { return c.vrt > 0 }, limit/4, out)
	out = pick(func(c *wordClass) bool { return c.marginal >= 2 }, limit-len(out), out)
	slices.SortFunc(out, mitigate.WordAddr.Compare)
	return out
}

func containsAddr(s []mitigate.WordAddr, wa mitigate.WordAddr) bool {
	for _, a := range s {
		if a == wa {
			return true
		}
	}
	return false
}

// stressPayload builds the resident value for a word: a per-word base
// pattern with every weak bit of the physical word backing it (weak) set to
// its charged, leak-prone value (charged), so retention failures in the
// physical word actually corrupt data.
func stressPayload(wa mitigate.WordAddr, weak, charged uint64) uint64 {
	h := uint64(wa.Bank)<<40 ^ uint64(wa.Row)<<20 ^ uint64(wa.Word)
	h *= 0x9e3779b97f4a7c15
	return (0xa5a5a5a5a5a5a5a5^h)&^weak | charged
}
