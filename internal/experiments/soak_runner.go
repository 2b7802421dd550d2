package experiments

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"reaper/internal/checkpoint"
	"reaper/internal/core"
	"reaper/internal/dram"
	"reaper/internal/faultinject"
	"reaper/internal/firmware"
	"reaper/internal/memctrl"
	"reaper/internal/mitigate"
	"reaper/internal/patterns"
	"reaper/internal/scrub"
	"reaper/internal/telemetry"
)

// soakRunner is one chip's live campaign state: the full simulation stack
// plus the window counters the window loop maintains. The soak executor
// (soakChips) runs one from construction or its newest save to the horizon,
// encoding its state at every save, so a killed campaign resumes — or a
// panicked chip retries — from that save with bit-identical behavior.
type soakRunner struct {
	cfg  SoakConfig //lint:serialized-elsewhere campaign config; resume requires the identical config, guarded by the campaign identity digest
	idx  int
	seed uint64

	st       *memctrl.Station
	shield   *mitigate.ArchShield
	mem      *scrub.ECCMemory
	scr      *scrub.Scrubber
	inj      *faultinject.Injector
	mgr      *firmware.Manager
	tracer   *telemetry.Tracer
	reg      *telemetry.Registry // the chip's own registry; nil when uninstrumented
	resident []mitigate.WordAddr

	win soakWindows
	end float64 // station clock at campaign end
}

// soakWindows are the scrub-window counters the window loop accumulates;
// finalize turns them into the chip's report.
type soakWindows struct {
	windows      int
	violations   int // windows with >= 1 UE
	ueEvents     int // word-level UE observations
	corrected    int
	wordsScanned int64
}

// newSoakRunner builds the chip stack; start or restoreState then sets its
// campaign state. Every rng draw of the construction sequence derives from
// the chip seed, so a rebuilt runner restored from a blob continues exactly
// where the encoded one stopped; reordering the construction steps changes
// every pinned campaign golden.
func newSoakRunner(cfg SoakConfig, idx int, seed uint64) (*soakRunner, error) {
	r := &soakRunner{cfg: cfg, idx: idx, seed: seed}

	spec := cfg.Chip
	spec.Seed = seed
	spec.Chamber = false
	st, err := spec.NewStation()
	if err != nil {
		return nil, err
	}
	r.st = st
	st.SetRefreshInterval(cfg.TargetInterval)

	r.shield, err = mitigate.NewArchShield(st, soakSpareFraction)
	if err != nil {
		return nil, err
	}
	r.mem, err = scrub.NewECCMemory(st)
	if err != nil {
		return nil, err
	}
	r.mem.SetMapper(r.shield.Resolve)
	r.scr, err = scrub.NewScrubber(r.mem)
	if err != nil {
		return nil, err
	}

	scen := faultinject.DefaultScenario(scenarioSeed(seed))
	if cfg.Scenario != nil {
		scen = *cfg.Scenario
		scen.Seed = scen.Seed ^ (uint64(idx)+1)*0x9e3779b97f4a7c15
	}
	r.inj, err = faultinject.New(st, cfg.TargetInterval, scen)
	if err != nil {
		return nil, err
	}
	r.inj.AttachShield(r.shield)

	r.mgr, err = firmware.New(st, firmware.Config{
		TargetInterval: cfg.TargetInterval,
		Reach:          core.ReachConditions{DeltaInterval: 0.25},
		Profiling:      core.Options{Iterations: 4, FreshRandomPerIteration: true, Seed: seed},
		CadenceHours:   cfg.CadenceHours,
		PreRound:       r.inj.RoundGate(),
		Install:        r.shield.Install,
		AfterRound:     r.writeResident,
		Resilience:     cfg.Controller,
	})
	if err != nil {
		return nil, err
	}

	// Instrument the chip's components into a registry and trace ring the
	// chip owns outright: the executor folds the registry into the
	// campaign's (counters add, gauges carry the chip label) and Soak merges
	// the ring into the fleet timeline.
	if cfg.Telemetry != nil {
		r.tracer = telemetry.NewTracer(telemetry.DefaultTraceCapacity)
		r.reg = telemetry.New()
		chipLabel := telemetry.L("chip", strconv.Itoa(idx))
		r.mgr.Instrument(r.reg, r.tracer, chipLabel)
		r.inj.Instrument(r.reg, r.tracer, chipLabel)
		r.scr.Instrument(r.reg, r.tracer, chipLabel)
	}
	return r, nil
}

// start begins a fresh campaign on a newly built chip: it selects the
// resident set, writes it through ECC and fixes the horizon. A restored
// chip skips it, because restoreState overwrites all three.
func (r *soakRunner) start() error {
	r.resident = selectResidentWords(r.st, r.shield, r.cfg.TargetInterval, soakResidentWords)
	if err := r.writeResident(); err != nil {
		return err
	}
	r.end = r.st.Clock() + r.cfg.Hours*3600
	return nil
}

// writeResident rewrites the resident data set (the AfterRound hook).
func (r *soakRunner) writeResident() error {
	for _, wa := range r.resident {
		if err := r.reload(wa); err != nil {
			return err
		}
	}
	return nil
}

// reload writes a resident word's stress payload, built from the weak cells
// of the physical word currently backing it.
func (r *soakRunner) reload(wa mitigate.WordAddr) error {
	p := r.shield.Resolve(wa)
	weak, charged := r.st.Device().WeakBits(p.Bank, p.Row, p.Word)
	return r.mem.Write(wa, stressPayload(wa, weak, charged))
}

// done reports whether the campaign horizon has been reached.
func (r *soakRunner) done() bool { return r.st.Clock() >= r.end-1e-6 }

// runWindows advances the campaign by up to maxWindows scrub windows
// (maxWindows <= 0 means run to the horizon), stopping early at the
// horizon. The loop body is byte-identical regardless of how the windows
// are batched into calls.
func (r *soakRunner) runWindows(ctx context.Context, maxWindows int) error {
	windowSec := r.cfg.WindowHours * 3600
	for ran := 0; !r.done() && (maxWindows <= 0 || ran < maxWindows); ran++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		r.inj.RunUntil(math.Min(r.st.Clock()+windowSec, r.end))
		if _, err := r.mgr.Tick(ctx); err != nil {
			return err
		}
		srep, err := r.scr.Scrub()
		if err != nil {
			return err
		}
		r.win.windows++
		r.win.corrected += srep.Corrected
		r.win.wordsScanned += int64(srep.WordsScanned)
		if srep.Uncorrectable > 0 {
			r.win.violations++
			r.win.ueEvents += srep.Uncorrectable
			// Page-reload model: the OS restores each SECDED-fatal word
			// from backing store, so the word is stressed again next
			// window rather than staying frozen at its corrupted value.
			for _, wa := range srep.Uncorrectables {
				if err := r.reload(wa); err != nil {
					return err
				}
			}
		}
		r.mgr.ReportScrub(firmware.Telemetry{
			WindowSeconds: windowSec,
			Corrected:     srep.Corrected,
			Uncorrectable: srep.Uncorrectable,
		})
	}
	return nil
}

// finalize computes the chip's survival record from the accumulated state.
func (r *soakRunner) finalize() chipSoakResult {
	w := r.win
	rep := ChipSoakReport{
		Chip:              r.idx,
		Seed:              r.seed,
		Windows:           w.windows,
		ViolationWindows:  w.violations,
		UEEvents:          w.ueEvents,
		CorrectedTotal:    w.corrected,
		WordsScanned:      w.wordsScanned,
		Rounds:            r.mgr.Rounds(),
		EarlyRounds:       r.mgr.EarlyRounds(),
		Aborts:            r.mgr.Aborts(),
		WidenSteps:        r.mgr.WidenSteps(),
		FinalDegradeLevel: r.mgr.DegradeLevel(),
		FinalIntervalMs:   r.mgr.CurrentInterval() * 1000,
		SparesExhausted:   r.mgr.SparesExhausted(),
		ExtendedFraction:  r.mgr.ExtendedFraction(),
		FaultCounts:       r.inj.Counts(),
		FaultEvents:       r.inj.Events(),
		ControllerEvents:  r.mgr.Events(),
	}
	// UBER: a word-level UE is ~2 wrong bits out of the 64 data bits read.
	if w.wordsScanned > 0 {
		rep.UBER = 2 * float64(w.ueEvents) / (64 * float64(w.wordsScanned))
	}
	rep.Survived = rep.UBER <= r.cfg.MaxUBER
	for _, e := range rep.ControllerEvents {
		switch e.Kind {
		case firmware.EventDegrade:
			rep.DegradeEvents++
		case firmware.EventRecover:
			rep.RecoverEvents++
		}
	}
	return chipSoakResult{rep: rep, trace: r.tracer.Events()}
}

// resolveRowData adapts patterns.Parse to the dram restore resolver.
func resolveRowData(name string) (dram.RowData, error) {
	p, err := patterns.Parse(name)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// encodeState serializes the runner's full campaign state: the window
// counters, the resident set, and every component's checkpoint surface.
func (r *soakRunner) encodeState() ([]byte, error) {
	e := checkpoint.NewEncoder()
	e.Section("soak.runner")
	e.Int(r.idx)
	e.U64(r.seed)
	e.F64(r.end)
	e.Int(r.win.windows)
	e.Int(r.win.violations)
	e.Int(r.win.ueEvents)
	e.Int(r.win.corrected)
	e.I64(r.win.wordsScanned)
	e.Len(len(r.resident))
	for _, wa := range r.resident {
		e.Int(wa.Bank)
		e.Int(wa.Row)
		e.Int(wa.Word)
	}
	r.st.EncodeState(e)
	// The device travels as a delta against its seed-derived construction
	// (dram.EncodeDelta), not as the dense population dump: a soak chip's
	// divergence is a handful of injected cells, forced VRT schedules and
	// stuck bits, so per-chip blobs stay small enough to write at every
	// save even at million-chip scale. restoreState rebuilds the same fresh
	// device (newSoakRunner) before replaying the delta.
	if err := r.st.Device().EncodeDelta(e); err != nil {
		return nil, err
	}
	r.shield.EncodeState(e)
	r.mem.EncodeState(e)
	if err := r.scr.EncodeState(e); err != nil {
		return nil, err
	}
	r.inj.EncodeState(e)
	if err := r.mgr.EncodeState(e); err != nil {
		return nil, err
	}
	r.tracer.EncodeState(e)
	// An uninstrumented chip's nil registry encodes as an empty snapshot.
	r.reg.Snapshot().EncodeState(e)
	return e.Data(), nil
}

// restoreState loads a blob produced by encodeState into a freshly
// constructed runner for the same (cfg, idx, seed).
func (r *soakRunner) restoreState(blob []byte) error {
	d := checkpoint.NewDecoder(blob)
	d.Section("soak.runner")
	idx, seed := d.Int(), d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if idx != r.idx || seed != r.seed {
		return fmt.Errorf("soak: restore: blob is chip %d seed %#x, runner is chip %d seed %#x",
			idx, seed, r.idx, r.seed)
	}
	r.end = d.F64()
	r.win.windows = d.Int()
	r.win.violations = d.Int()
	r.win.ueEvents = d.Int()
	r.win.corrected = d.Int()
	r.win.wordsScanned = d.I64()
	nr := d.Len(1 << 24)
	if err := d.Err(); err != nil {
		return err
	}
	r.resident = make([]mitigate.WordAddr, nr)
	for i := range r.resident {
		r.resident[i] = mitigate.WordAddr{Bank: d.Int(), Row: d.Int(), Word: d.Int()}
	}
	if err := r.st.RestoreState(d); err != nil {
		return fmt.Errorf("soak chip %d: station: %w", r.idx, err)
	}
	if err := r.st.Device().RestoreDelta(d, resolveRowData); err != nil {
		return fmt.Errorf("soak chip %d: device: %w", r.idx, err)
	}
	if err := r.shield.RestoreState(d); err != nil {
		return fmt.Errorf("soak chip %d: shield: %w", r.idx, err)
	}
	if err := r.mem.RestoreState(d); err != nil {
		return fmt.Errorf("soak chip %d: ecc memory: %w", r.idx, err)
	}
	if err := r.scr.RestoreState(d); err != nil {
		return fmt.Errorf("soak chip %d: scrubber: %w", r.idx, err)
	}
	if err := r.inj.RestoreState(d); err != nil {
		return fmt.Errorf("soak chip %d: injector: %w", r.idx, err)
	}
	if err := r.mgr.RestoreState(d); err != nil {
		return fmt.Errorf("soak chip %d: firmware: %w", r.idx, err)
	}
	// RestoreState on a nil tracer decodes and discards the serialized ring
	// (an uninstrumented campaign still carries the section marker).
	if err := r.tracer.RestoreState(d); err != nil {
		return fmt.Errorf("soak chip %d: tracer: %w", r.idx, err)
	}
	// The registry is fresh from construction, so the merge restores the
	// saved series exactly.
	snap, err := telemetry.DecodeSnapshot(d)
	if err != nil {
		return fmt.Errorf("soak chip %d: registry: %w", r.idx, err)
	}
	r.reg.MergeSnapshot(snap)
	return d.Err()
}
