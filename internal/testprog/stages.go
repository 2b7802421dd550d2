package testprog

import (
	"fmt"

	"reaper/internal/dram"
	"reaper/internal/faultinject"
	"reaper/internal/patterns"
)

// Stage is one step of a test program. Concrete stage types are the
// exported *Stage structs in this package; each carries a "type" JSON
// field holding its stage-type token (the value StageType returns).
// Programs constructed in Go may leave the Type field empty — Validate
// and Canonical fill it.
type Stage interface {
	// StageType returns the stage's type token, e.g. "write_pattern".
	StageType() string
	// validate checks the stage's own fields and its position inside the
	// program (index i). The closed stage set keeps the loader strict:
	// only types registered in stageCodecs decode.
	validate(p *Program, i int) error
}

// Stage-type tokens, in the shared lower_snake_case naming convention
// (API.md "Naming convention").
const (
	StageWritePattern    = "write_pattern"
	StageSetTemp         = "set_temp"
	StageDisableRefresh  = "disable_refresh"
	StageEnableRefresh   = "enable_refresh"
	StageWait            = "wait"
	StageReadCompare     = "read_compare"
	StageClassify        = "classify"
	StageInjectFault     = "inject_fault"
	StageProfile         = "profile"
	StageTradeoffGrid    = "tradeoff_grid"
	StageSoak            = "soak"
	StagePopulationSweep = "population_sweep"
)

// stageCodecs is the closed registry of stage types: token → constructor
// of an empty stage to strict-decode into. Load rejects any token not
// present here.
var stageCodecs = map[string]func() Stage{
	StageWritePattern:    func() Stage { return &WritePatternStage{} },
	StageSetTemp:         func() Stage { return &SetTempStage{} },
	StageDisableRefresh:  func() Stage { return &DisableRefreshStage{} },
	StageEnableRefresh:   func() Stage { return &EnableRefreshStage{} },
	StageWait:            func() Stage { return &WaitStage{} },
	StageReadCompare:     func() Stage { return &ReadCompareStage{} },
	StageClassify:        func() Stage { return &ClassifyStage{} },
	StageInjectFault:     func() Stage { return &InjectFaultStage{} },
	StageProfile:         func() Stage { return &ProfileStage{} },
	StageTradeoffGrid:    func() Stage { return &TradeoffGridStage{} },
	StageSoak:            func() Stage { return &SoakStage{} },
	StagePopulationSweep: func() Stage { return &PopulationSweepStage{} },
}

// campaignStage reports whether a stage type token names a campaign stage
// (runs once per program over experiment harnesses) rather than a device
// stage (runs once per chip over station primitives).
func campaignStage(token string) bool {
	switch token {
	case StageTradeoffGrid, StageSoak, StagePopulationSweep:
		return true
	}
	return false
}

// Kind labels the two stage families a program can be built from.
type Kind string

// The two program kinds; Program.Kind in results carries one of these.
const (
	KindDevice   Kind = "device"
	KindCampaign Kind = "campaign"
)

// Kind returns the program's stage family. It assumes a validated program
// (mixed families fail Validate); an empty program returns KindDevice.
func (p *Program) Kind() Kind {
	for _, s := range p.Stages {
		if campaignStage(s.StageType()) {
			return KindCampaign
		}
	}
	return KindDevice
}

// Temperature bounds accepted by set_temp and the classify/grid targets:
// the thermal model is calibrated for this operating envelope.
const (
	MinTempC = 0
	MaxTempC = 120
)

// maxWaitSeconds bounds a single wait stage (~4 simulated months) so a
// typo cannot request an unbounded simulation.
const maxWaitSeconds = 1e7

// WritePatternStage writes a data pattern to every row of the chip.
type WritePatternStage struct {
	// Type is the stage-type token, StageWritePattern.
	Type string `json:"type"`
	// Pattern names the data pattern in the internal/patterns grammar:
	// solid0, solid1, checker, colstripe, rowstripe, walk1,
	// random(0x9e37), and any of these prefixed with "~" for the inverse.
	Pattern string `json:"pattern"`
}

// StageType implements Stage.
func (s *WritePatternStage) StageType() string { return StageWritePattern }

func (s *WritePatternStage) validate(_ *Program, i int) error {
	if _, err := patterns.Parse(s.Pattern); err != nil {
		return fmt.Errorf("stage %d (%s): %w", i, s.StageType(), err)
	}
	return nil
}

// SetTempStage sets the ambient temperature of the chip's environment.
type SetTempStage struct {
	// Type is the stage-type token, StageSetTemp.
	Type string `json:"type"`
	// AmbientC is the new ambient temperature in °C, in (MinTempC,
	// MaxTempC].
	AmbientC float64 `json:"ambient_c"`
}

// StageType implements Stage.
func (s *SetTempStage) StageType() string { return StageSetTemp }

func (s *SetTempStage) validate(_ *Program, i int) error {
	if s.AmbientC <= MinTempC || s.AmbientC > MaxTempC {
		return fmt.Errorf("stage %d (%s): ambient_c %v out of (%d, %d]",
			i, s.StageType(), s.AmbientC, MinTempC, MaxTempC)
	}
	return nil
}

// DisableRefreshStage pauses DRAM refresh so cells begin to decay.
type DisableRefreshStage struct {
	// Type is the stage-type token, StageDisableRefresh.
	Type string `json:"type"`
}

// StageType implements Stage.
func (s *DisableRefreshStage) StageType() string { return StageDisableRefresh }

func (s *DisableRefreshStage) validate(*Program, int) error { return nil }

// EnableRefreshStage re-enables refresh, locking in any decay that
// happened while it was off (the station restores all rows).
type EnableRefreshStage struct {
	// Type is the stage-type token, StageEnableRefresh.
	Type string `json:"type"`
}

// StageType implements Stage.
func (s *EnableRefreshStage) StageType() string { return StageEnableRefresh }

func (s *EnableRefreshStage) validate(*Program, int) error { return nil }

// WaitStage advances simulated time.
type WaitStage struct {
	// Type is the stage-type token, StageWait.
	Type string `json:"type"`
	// Seconds is the simulated wait, in (0, 1e7].
	Seconds float64 `json:"seconds"`
}

// StageType implements Stage.
func (s *WaitStage) StageType() string { return StageWait }

func (s *WaitStage) validate(_ *Program, i int) error {
	if s.Seconds <= 0 || s.Seconds > maxWaitSeconds {
		return fmt.Errorf("stage %d (%s): seconds %v out of (0, %g]",
			i, s.StageType(), s.Seconds, float64(maxWaitSeconds))
	}
	return nil
}

// ReadCompareStage reads every row back and records the cells whose
// contents no longer match the last written pattern. Failing cells
// accumulate into the program's cumulative failure set (which classify
// scores).
type ReadCompareStage struct {
	// Type is the stage-type token, StageReadCompare.
	Type string `json:"type"`
	// Label tags this read-back in the result (optional).
	Label string `json:"label,omitempty"`
}

// StageType implements Stage.
func (s *ReadCompareStage) StageType() string { return StageReadCompare }

func (s *ReadCompareStage) validate(p *Program, i int) error {
	for _, prior := range p.Stages[:i] {
		if prior.StageType() == StageWritePattern {
			return nil
		}
	}
	return fmt.Errorf("stage %d (%s): requires a prior write_pattern stage", i, s.StageType())
}

// ClassifyStage scores the cumulative failure set against the simulator's
// ground-truth failing set at the given target conditions — coverage and
// false positive rate, the paper's Figure 9 quantities.
type ClassifyStage struct {
	// Type is the stage-type token, StageClassify.
	Type string `json:"type"`
	// TargetIntervalS is the refresh interval the system would actually
	// run at, in seconds.
	TargetIntervalS float64 `json:"target_interval_s"`
	// TargetTempC is the operating temperature to score at.
	TargetTempC float64 `json:"target_temp_c"`
}

// StageType implements Stage.
func (s *ClassifyStage) StageType() string { return StageClassify }

func (s *ClassifyStage) validate(p *Program, i int) error {
	if s.TargetIntervalS <= 0 {
		return fmt.Errorf("stage %d (%s): target_interval_s must be positive", i, s.StageType())
	}
	if s.TargetTempC <= MinTempC || s.TargetTempC > MaxTempC {
		return fmt.Errorf("stage %d (%s): target_temp_c %v out of (%d, %d]",
			i, s.StageType(), s.TargetTempC, MinTempC, MaxTempC)
	}
	for _, prior := range p.Stages[:i] {
		switch prior.StageType() {
		case StageReadCompare, StageProfile:
			return nil
		}
	}
	return fmt.Errorf("stage %d (%s): requires a prior read_compare or profile stage", i, s.StageType())
}

// Fault kinds accepted by inject_fault, lowering onto the internal/dram
// injection primitives (Section 2.3 hazards).
const (
	// FaultWeakArrival injects new weak cells (Fig 4 arrival process).
	FaultWeakArrival = "weak_arrival"
	// FaultVRTBurst forces existing cells into their low-retention VRT
	// state (Section 2.3.1 escapes).
	FaultVRTBurst = "vrt_burst"
	// FaultDPDRescramble rescrambles data-pattern-dependence coupling
	// (Section 2.3.2).
	FaultDPDRescramble = "dpd_rescramble"
)

// InjectFaultStage perturbs the chip with one of the Section 2.3 hazard
// mechanisms, deterministically: each chip owns an rng stream derived
// from the program seed, consumed by its inject stages in program order.
type InjectFaultStage struct {
	// Type is the stage-type token, StageInjectFault.
	Type string `json:"type"`
	// Kind selects the mechanism: FaultWeakArrival, FaultVRTBurst, or
	// FaultDPDRescramble.
	Kind string `json:"kind"`
	// Cells is how many cells to perturb.
	Cells int `json:"cells"`
	// MaxMuS bounds the injected retention time in seconds (the weakest
	// cell injected). Required for weak_arrival and vrt_burst; must be
	// omitted for dpd_rescramble.
	MaxMuS float64 `json:"max_mu_s,omitempty"`
}

// StageType implements Stage.
func (s *InjectFaultStage) StageType() string { return StageInjectFault }

func (s *InjectFaultStage) validate(_ *Program, i int) error {
	if s.Cells <= 0 || s.Cells > maxInjectCells {
		return fmt.Errorf("stage %d (%s): cells %d out of range 1..%d", i, s.StageType(), s.Cells, maxInjectCells)
	}
	switch s.Kind {
	case FaultWeakArrival, FaultVRTBurst:
		if s.MaxMuS <= 0 {
			return fmt.Errorf("stage %d (%s): kind %q requires max_mu_s > 0", i, s.StageType(), s.Kind)
		}
	case FaultDPDRescramble:
		if s.MaxMuS != 0 {
			return fmt.Errorf("stage %d (%s): kind %q does not take max_mu_s", i, s.StageType(), s.Kind)
		}
	default:
		return fmt.Errorf("stage %d (%s): unknown kind %q (valid: %s, %s, %s)",
			i, s.StageType(), s.Kind, FaultWeakArrival, FaultVRTBurst, FaultDPDRescramble)
	}
	return nil
}

// maxProfileIterations bounds a profile stage's testing rounds.
const maxProfileIterations = 1024

// maxInjectCells bounds an inject_fault stage's cell count. Every injected
// cell is an ordered insert into the chip's weak population, so a stage
// holds a job worker for a time quadratic in its count: at this bound on the
// largest chip, about 0.7 s on a 2-CPU host (TestInjectFaultLargestStage).
const maxInjectCells = 1 << 16

// ProfileStage runs a full reach-profiling round (the paper's Algorithm 1
// at reach conditions): the standard pattern set, iterated, at target
// interval + delta and ambient + delta. It is the macro equivalent of a
// hand-written write/disable/wait/enable/read loop, and its failures
// accumulate into the cumulative set like read_compare's.
type ProfileStage struct {
	// Type is the stage-type token, StageProfile.
	Type string `json:"type"`
	// TargetIntervalS is the target refresh interval in seconds.
	TargetIntervalS float64 `json:"target_interval_s"`
	// DeltaIntervalS and DeltaTempC are the reach conditions (both >= 0;
	// zero means brute-force profiling at the target).
	DeltaIntervalS float64 `json:"delta_interval_s,omitempty"`
	DeltaTempC     float64 `json:"delta_temp_c,omitempty"`
	// Iterations is the number of testing rounds; 0 means 16 (the
	// paper's standard).
	Iterations int `json:"iterations,omitempty"`
	// FreshRandom re-seeds the random patterns every iteration, per the
	// paper's methodology.
	FreshRandom bool `json:"fresh_random,omitempty"`
	// Seed overrides the pattern-seed for this stage; 0 derives it from
	// the program seed (chip seed), which is what campaigns normally
	// want.
	Seed uint64 `json:"seed,omitempty"`
}

// StageType implements Stage.
func (s *ProfileStage) StageType() string { return StageProfile }

func (s *ProfileStage) validate(_ *Program, i int) error {
	if s.TargetIntervalS <= 0 {
		return fmt.Errorf("stage %d (%s): target_interval_s must be positive", i, s.StageType())
	}
	if s.DeltaIntervalS < 0 || s.DeltaTempC < 0 {
		return fmt.Errorf("stage %d (%s): reach deltas must be non-negative", i, s.StageType())
	}
	if s.Iterations < 0 || s.Iterations > maxProfileIterations {
		return fmt.Errorf("stage %d (%s): iterations %d out of [0, %d]",
			i, s.StageType(), s.Iterations, maxProfileIterations)
	}
	return nil
}

// TradeoffGridStage runs the Figure 9/10 reach-condition grid — the
// campaign equivalent of experiments.Fig9Fig10Tradeoff with an identical
// configuration, so results are byte-identical to the Go API path.
// It profiles one chip built from the program fleet spec (fleet.chips is
// ignored) seeded with the program seed.
type TradeoffGridStage struct {
	// Type is the stage-type token, StageTradeoffGrid.
	Type string `json:"type"`
	// TargetIntervalS and TargetTempC are the operating conditions every
	// grid point is scored against.
	TargetIntervalS float64 `json:"target_interval_s"`
	TargetTempC     float64 `json:"target_temp_c"`
	// DeltaIntervalsS and DeltaTempsC span the reach grid; include 0 in
	// both to get the brute-force reference point.
	DeltaIntervalsS []float64 `json:"delta_intervals_s"`
	DeltaTempsC     []float64 `json:"delta_temps_c"`
	// Iterations samples coverage/FPR (0 means 16); CoverageGoal is the
	// Figure 10 runtime criterion (0 means 0.90); MaxIterations caps the
	// runtime search (0 means 4*Iterations).
	Iterations    int     `json:"iterations,omitempty"`
	CoverageGoal  float64 `json:"coverage_goal,omitempty"`
	MaxIterations int     `json:"max_iterations,omitempty"`
}

// StageType implements Stage.
func (s *TradeoffGridStage) StageType() string { return StageTradeoffGrid }

func (s *TradeoffGridStage) validate(_ *Program, i int) error {
	if s.TargetIntervalS <= 0 {
		return fmt.Errorf("stage %d (%s): target_interval_s must be positive", i, s.StageType())
	}
	if s.TargetTempC <= MinTempC || s.TargetTempC > MaxTempC {
		return fmt.Errorf("stage %d (%s): target_temp_c %v out of (%d, %d]",
			i, s.StageType(), s.TargetTempC, MinTempC, MaxTempC)
	}
	if len(s.DeltaIntervalsS) == 0 || len(s.DeltaTempsC) == 0 {
		return fmt.Errorf("stage %d (%s): empty reach grid", i, s.StageType())
	}
	for _, d := range s.DeltaIntervalsS {
		if d < 0 {
			return fmt.Errorf("stage %d (%s): negative delta interval %v", i, s.StageType(), d)
		}
	}
	for _, d := range s.DeltaTempsC {
		if d < 0 {
			return fmt.Errorf("stage %d (%s): negative delta temperature %v", i, s.StageType(), d)
		}
	}
	if s.CoverageGoal < 0 || s.CoverageGoal > 1 {
		return fmt.Errorf("stage %d (%s): coverage_goal %v out of [0, 1]", i, s.StageType(), s.CoverageGoal)
	}
	if s.Iterations < 0 || s.MaxIterations < 0 {
		return fmt.Errorf("stage %d (%s): negative iteration bound", i, s.StageType())
	}
	// Compare the values the grid will run with, defaults filled as
	// documented on the fields.
	iters, maxIters := s.Iterations, s.MaxIterations
	if iters == 0 {
		iters = 16
	}
	if maxIters == 0 {
		maxIters = 4 * iters
	}
	if iters > maxIters {
		return fmt.Errorf("stage %d (%s): iterations %d exceeds max_iterations %d",
			i, s.StageType(), iters, maxIters)
	}
	return nil
}

// SoakStage runs a long-horizon fault-injection soak (experiments.Soak):
// the program fleet (fleet.chips chips built from the fleet spec) holds an
// extended refresh interval for simulated hours while a named fault
// scenario drives the Section 2.3 hazards, with or without the firmware
// resilience controller.
type SoakStage struct {
	// Type is the stage-type token, StageSoak.
	Type string `json:"type"`
	// Hours is the soak horizon in simulated hours.
	Hours float64 `json:"hours"`
	// TargetIntervalS is the extended refresh interval under test.
	TargetIntervalS float64 `json:"target_interval_s"`
	// WindowHours is the scrub window (0 means 1) and CadenceHours the
	// open-loop reprofiling cadence (0 means 24).
	WindowHours  float64 `json:"window_hours,omitempty"`
	CadenceHours float64 `json:"cadence_hours,omitempty"`
	// Scenario names a fault preset from internal/faultinject
	// (faultinject.ScenarioNames: default, quiet, harsh). Empty means
	// "default". The scenario seed derives from the program seed exactly
	// as cmd/soak derives it, so a named scenario here is bit-identical
	// to the same name on the cmd/soak command line.
	Scenario string `json:"scenario,omitempty"`
	// Controller enables the firmware resilience controller; false is
	// the open-loop baseline arm.
	Controller bool `json:"controller"`
	// MaxUBER is the survival criterion (0 means 1e-4).
	MaxUBER float64 `json:"max_uber,omitempty"`
	// ShardSize caps how many chips hold dense simulator state at once
	// (experiments.SoakConfig.ShardSize). 0 means no bound. Reports are
	// byte-identical at any value, so programs may set it purely to fit
	// large fleets in memory.
	ShardSize int `json:"shard_size,omitempty"`
}

// StageType implements Stage.
func (s *SoakStage) StageType() string { return StageSoak }

func (s *SoakStage) validate(_ *Program, i int) error {
	if s.Hours <= 0 {
		return fmt.Errorf("stage %d (%s): hours must be positive", i, s.StageType())
	}
	if s.TargetIntervalS <= 0 {
		return fmt.Errorf("stage %d (%s): target_interval_s must be positive", i, s.StageType())
	}
	if s.WindowHours < 0 || s.CadenceHours < 0 || s.MaxUBER < 0 {
		return fmt.Errorf("stage %d (%s): negative parameter", i, s.StageType())
	}
	if s.ShardSize < 0 {
		return fmt.Errorf("stage %d (%s): shard_size must be non-negative", i, s.StageType())
	}
	if s.Scenario != "" {
		if _, err := faultinject.NamedScenario(s.Scenario, 0); err != nil {
			return fmt.Errorf("stage %d (%s): %w", i, s.StageType(), err)
		}
	}
	return nil
}

// PopulationSweepStage evaluates a fleet of chips per vendor at one reach
// condition and aggregates per-vendor statistics
// (experiments.PopulationSweep). Chip capacity and weak-cell scale come
// from the program fleet spec; fleet.chips and fleet.vendor are ignored
// (the sweep always covers all three vendors).
type PopulationSweepStage struct {
	// Type is the stage-type token, StagePopulationSweep.
	Type string `json:"type"`
	// ChipsPerVendor sizes the per-vendor fleet.
	ChipsPerVendor int `json:"chips_per_vendor"`
	// TargetIntervalS is the operating refresh interval in seconds.
	TargetIntervalS float64 `json:"target_interval_s"`
	// DeltaIntervalS and DeltaTempC are the reach condition every chip
	// profiles at (both >= 0).
	DeltaIntervalS float64 `json:"delta_interval_s,omitempty"`
	DeltaTempC     float64 `json:"delta_temp_c,omitempty"`
	// Iterations is the per-chip profiling rounds; 0 means 16.
	Iterations int `json:"iterations,omitempty"`
	// ShardSize caps how many chips are materialized at once
	// (experiments.PopulationConfig.ShardSize): it caps the sweep's worker
	// pool, and each worker drops its chip before taking the next, so peak
	// memory is O(ShardSize), not O(fleet). 0 leaves the pool at the run's
	// worker count. Results are byte-identical at any value.
	ShardSize int `json:"shard_size,omitempty"`
}

// StageType implements Stage.
func (s *PopulationSweepStage) StageType() string { return StagePopulationSweep }

func (s *PopulationSweepStage) validate(p *Program, i int) error {
	if s.ChipsPerVendor <= 0 {
		return fmt.Errorf("stage %d (%s): chips_per_vendor must be positive", i, s.StageType())
	}
	if s.ShardSize < 0 {
		return fmt.Errorf("stage %d (%s): shard_size must be non-negative", i, s.StageType())
	}
	if s.TargetIntervalS <= 0 {
		return fmt.Errorf("stage %d (%s): target_interval_s must be positive", i, s.StageType())
	}
	if s.DeltaIntervalS < 0 || s.DeltaTempC < 0 {
		return fmt.Errorf("stage %d (%s): reach deltas must be non-negative", i, s.StageType())
	}
	if s.Iterations < 0 || s.Iterations > maxProfileIterations {
		return fmt.Errorf("stage %d (%s): iterations %d out of [0, %d]",
			i, s.StageType(), s.Iterations, maxProfileIterations)
	}
	// The sweep builds chips of every vendor, whatever fleet.vendor says.
	for _, v := range dram.Vendors() {
		if err := p.Fleet.checkChipCells(v); err != nil {
			return fmt.Errorf("stage %d (%s): %w", i, s.StageType(), err)
		}
	}
	return nil
}
