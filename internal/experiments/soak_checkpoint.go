package experiments

// Chip-major soak execution, the only way a soak runs: one fault-tolerant
// job per chip builds the chip once, or restores it once from its newest
// checkpoint, and runs it to the horizon. With a checkpoint directory each
// chip saves its own state every EveryWindows scrub windows through the
// shared two-generation store, so a campaign killed at any point resumes
// each chip from its own newest save and produces a final report
// byte-identical to an uninterrupted run; a chip that panics or errors is
// retried from its newest save and, if it keeps failing, quarantined so the
// rest of the fleet completes. Without a checkpoint directory there is no
// store, and each chip runs from construction to the horizon.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"reaper/internal/checkpoint"
	"reaper/internal/parallel"
	"reaper/internal/telemetry"
)

// ErrInterrupted is returned by Soak when a checkpointed campaign stopped on
// request (CheckpointOptions.ShouldStop or StopAfterCheckpoints): each chip
// that had started stopped at a save. The checkpoint directory holds every
// chip's newest save; rerunning with Resume continues each chip exactly
// where it stopped.
var ErrInterrupted = errors.New("soak: interrupted at a checkpoint; resume to continue")

// DefaultCheckpointEveryWindows is the default number of scrub windows
// between a chip's saves.
const DefaultCheckpointEveryWindows = 24

// CheckpointOptions configures crash-safe execution for Soak.
type CheckpointOptions struct {
	// Dir is the checkpoint directory. Empty runs the campaign without a
	// store: each chip runs to the horizon unsaved, and Resume,
	// StopAfterCheckpoints and ShouldStop do not apply.
	Dir string
	// EveryWindows is how many scrub windows a chip runs between its saves
	// (a chip also saves when it reaches the horizon). Zero means
	// DefaultCheckpointEveryWindows; negative is an error. It participates
	// in the campaign identity: a chip file is named by the windows it
	// holds, and one cadence keeps every name bound to one content.
	EveryWindows int
	// Resume restarts each chip from its newest save in Dir before running.
	// A directory with no checkpoint starts a fresh campaign; a checkpoint
	// written by a different configuration is refused
	// (checkpoint.ErrIdentityMismatch).
	Resume bool
	// StopAfterCheckpoints, when positive, stops each chip after its N-th
	// save in this process, and the campaign then returns ErrInterrupted.
	// A chip that reaches the horizon finishes instead. It is the
	// deterministic "kill at save k" hook the resume property tests and
	// `make soak-resume-quick` use.
	StopAfterCheckpoints int
	// ShouldStop is polled after each save and before each chip starts; a
	// true return stops that chip, and the campaign then returns
	// ErrInterrupted. The signal handler in cmd/soak uses this for
	// SIGINT/SIGTERM: running chips finish their in-flight windows and save,
	// chips not yet started do not start, then the process exits.
	ShouldStop func() bool

	// beforeSegment, when non-nil, runs before each run of up to
	// EveryWindows windows (one run to the horizon without a Dir), with the
	// number of saves the chip has behind it. The crash-injection tests set
	// it to kill (panic) workers at seed-chosen points, proving a retry
	// from the newest save is exact.
	beforeSegment func(segment, chip int)
}

// chipFile names chip i's save after the scrub windows it holds. A chip's
// state at a window count is deterministic, so a name never changes content.
func chipFile(i, windows int) string { return fmt.Sprintf("chip-%03d-%06d.ckpt", i, windows) }

// soakIdentity fingerprints every configuration field that shapes the
// campaign's results, binding a checkpoint directory to one campaign.
func soakIdentity(cfg SoakConfig, everyWindows int) (string, error) {
	e := checkpoint.NewEncoder()
	e.Section("soak.identity")
	e.Int(cfg.Chips)
	e.U64(cfg.Seed)
	e.F64(cfg.Hours)
	e.F64(cfg.WindowHours)
	e.F64(cfg.TargetInterval)
	e.F64(cfg.CadenceHours)
	if cfg.Scenario != nil {
		e.Bool(true)
		b, err := json.Marshal(cfg.Scenario)
		if err != nil {
			return "", fmt.Errorf("soak: identity: %w", err)
		}
		e.Bytes(b)
	} else {
		e.Bool(false)
	}
	e.Bool(cfg.Controller)
	e.F64(cfg.MaxUBER)
	e.I64(cfg.Chip.Bits)
	e.F64(cfg.Chip.WeakScale)
	vb, err := json.Marshal(cfg.Chip.Vendor)
	if err != nil {
		return "", fmt.Errorf("soak: identity: %w", err)
	}
	e.Bytes(vb)
	e.Bool(cfg.Chip.DisableVRT)
	e.Bool(cfg.Chip.DisableDPD)
	e.Bool(cfg.Telemetry != nil)
	e.Int(everyWindows)
	return checkpoint.Identity(e.Data()), nil
}

// restoreSoakRunner builds one chip runner: a fresh campaign start for a
// nil blob, otherwise construction plus state restore from the blob.
func restoreSoakRunner(cfg SoakConfig, idx int, seed uint64, blob []byte) (*soakRunner, error) {
	r, err := newSoakRunner(cfg, idx, seed)
	if err != nil {
		return nil, fmt.Errorf("soak chip %d: %w", idx, err)
	}
	if blob == nil {
		if err := r.start(); err != nil {
			return nil, fmt.Errorf("soak chip %d: %w", idx, err)
		}
		return r, nil
	}
	if err := r.restoreState(blob); err != nil {
		return nil, err
	}
	return r, nil
}

// chipSave is a chip's newest checkpoint: its file name, state blob and the
// scrub windows it holds.
type chipSave struct {
	name    string
	blob    []byte
	windows int
}

// soakStore is a campaign's checkpoint directory, shared by the chip jobs:
// each save replaces one chip's newest file and writes a new manifest
// listing every chip's newest file; the other chips' files stand as the
// previous manifest lists them.
type soakStore struct {
	store    *checkpoint.Store
	identity string
	abort    context.CancelCauseFunc // a failed save ends the campaign

	mu     sync.Mutex
	seq    int        // the newest manifest's sequence number
	latest []chipSave // each chip's newest save; zero before its first
}

// load fills latest from the directory's newest loadable manifest, which
// lists one file per chip that has saved.
func (s *soakStore) load() error {
	man, files, err := s.store.Load(s.identity)
	if errors.Is(err, checkpoint.ErrNoCheckpoint) {
		return nil // fresh directory: every chip starts from the beginning
	}
	if err != nil {
		return err
	}
	s.seq = man.Seq
	for _, f := range man.Files {
		var i, windows int
		_, err := fmt.Sscanf(f.Name, "chip-%d-%d.ckpt", &i, &windows)
		if err != nil || i < 0 || i >= len(s.latest) || chipFile(i, windows) != f.Name || s.latest[i].name != "" {
			return fmt.Errorf("soak: resume: unexpected checkpoint file %s", f.Name)
		}
		s.latest[i] = chipSave{name: f.Name, blob: files[f.Name], windows: windows}
	}
	return nil
}

// newest returns chip i's newest save.
func (s *soakStore) newest(i int) chipSave {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latest[i]
}

// save makes r's state chip i's newest save.
func (s *soakStore) save(i int, r *soakRunner) error {
	blob, err := r.encodeState()
	if err != nil {
		return fmt.Errorf("soak chip %d: encode: %w", i, err)
	}
	next := chipSave{name: chipFile(i, r.win.windows), blob: blob, windows: r.win.windows}
	s.mu.Lock()
	defer s.mu.Unlock()
	files := map[string][]byte{next.name: next.blob}
	for j, c := range s.latest {
		if j != i && c.name != "" {
			files[c.name] = nil // listed by the current manifest: kept unhashed
		}
	}
	if err := s.store.Save(s.seq+1, s.identity, files); err != nil {
		s.abort(err)
		return err
	}
	s.seq++
	s.latest[i] = next
	return nil
}

// soakChips is the soak executor: one MapPartial job per chip, on a pool
// capped at ShardSize (fleetWorkers). Each job runs its chip from its newest
// save (or from construction) to the horizon, saving every EveryWindows
// windows when there is a store, and folds the chip's telemetry registry
// into cfg.Telemetry as it returns. A job that stops on request returns a
// nil result.
func soakChips(ctx context.Context, cfg SoakConfig, seeds []uint64) (*SoakReport, error) {
	var ck CheckpointOptions
	if cfg.Checkpoint != nil {
		ck = *cfg.Checkpoint
	}
	n := cfg.Chips
	ctx, abort := context.WithCancelCause(ctx)
	defer abort(nil)
	every := 0
	var store *soakStore
	if ck.Dir != "" {
		every = ck.EveryWindows
		if every == 0 {
			every = DefaultCheckpointEveryWindows
		}
		identity, err := soakIdentity(cfg, every)
		if err != nil {
			return nil, err
		}
		st, err := checkpoint.NewStore(ck.Dir)
		if err != nil {
			return nil, err
		}
		store = &soakStore{store: st, identity: identity, abort: abort, latest: make([]chipSave, n)}
		if ck.Resume {
			if err := store.load(); err != nil {
				return nil, err
			}
		}
	}
	stop := func() bool { return store != nil && ck.ShouldStop != nil && ck.ShouldStop() }
	saves := make([]int, n) // saves per chip in this process, across its attempts

	results, failures, err := parallel.MapPartial(ctx, n, fleetWorkers(cfg.Workers, cfg.ShardSize), cfg.ShardAttempts,
		func(ctx context.Context, i int) (*chipSoakResult, error) {
			if stop() {
				return nil, nil
			}
			var from chipSave
			if store != nil {
				from = store.newest(i)
			}
			r, err := restoreSoakRunner(cfg, i, seeds[i], from.blob)
			if err != nil {
				return nil, err
			}
			if r.win.windows != from.windows {
				return nil, fmt.Errorf("soak chip %d: %s holds %d windows", i, from.name, r.win.windows)
			}
			// Whatever the chip records lands in its own registry, which
			// its saves carry and which joins the campaign's only as the
			// job returns: a retried or resumed chip never counts twice.
			ctx = telemetry.WithRegistry(ctx, r.reg)
			for !r.done() {
				if ck.beforeSegment != nil {
					segment := 0
					if every > 0 {
						segment = r.win.windows / every
					}
					ck.beforeSegment(segment, i)
				}
				if err := r.runWindows(ctx, every); err != nil {
					return nil, fmt.Errorf("soak chip %d: %w", i, err)
				}
				if store == nil {
					continue
				}
				if err := store.save(i, r); err != nil {
					return nil, err
				}
				saves[i]++
				if !r.done() && (ck.StopAfterCheckpoints > 0 && saves[i] >= ck.StopAfterCheckpoints || stop()) {
					cfg.Telemetry.MergeSnapshot(r.reg.Snapshot())
					return nil, nil
				}
			}
			res := r.finalize()
			cfg.Telemetry.MergeSnapshot(r.reg.Snapshot())
			return &res, nil
		})
	if err != nil {
		return nil, context.Cause(ctx)
	}
	if len(failures) > 0 && cfg.ShardAttempts == 0 {
		// No shard tolerance requested: preserve fail-fast semantics.
		f := failures[0]
		return nil, fmt.Errorf("soak chip %d: %s", f.Job, f.Reason())
	}
	// A quarantine is not saved: a chip that fails deterministically fails
	// again from the same save on resume, so every process derives it anew.
	var quarantined []QuarantinedShard
	failed := make([]bool, n)
	for _, f := range failures {
		failed[f.Job] = true
		q := QuarantinedShard{Chip: f.Job, Seed: seeds[f.Job], Attempts: f.Attempts, Reason: f.Reason()}
		if store != nil {
			q.Windows = store.newest(f.Job).windows
		}
		quarantined = append(quarantined, q)
	}
	for i, res := range results {
		if res == nil && !failed[i] {
			return nil, ErrInterrupted
		}
	}
	return assembleSoakReport(cfg, results, quarantined), nil
}
