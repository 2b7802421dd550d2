package experiments

// Segmented soak execution, the only way a soak runs: the campaign runs in
// segments of a fixed number of scrub windows. Each (segment, chip) job
// serializes its own chip's state when it finishes its windows, and the
// barrier after each segment writes the whole fleet snapshot through the
// two-generation checkpoint store. A campaign killed at any barrier resumes
// from its checkpoint directory and produces a final report byte-identical
// to an uninterrupted run; a shard that panics or errors mid-segment is
// retried from its start-of-segment state and, if it keeps failing,
// quarantined so the rest of the fleet completes. Without a checkpoint
// directory there is no store, and a single segment spans the horizon.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"reaper/internal/checkpoint"
	"reaper/internal/parallel"
	"reaper/internal/telemetry"
)

// ErrInterrupted is returned by Soak when a checkpointed campaign stopped at
// a segment barrier on request (CheckpointOptions.ShouldStop or
// StopAfterSegments). The checkpoint directory holds a complete snapshot;
// rerunning with Resume continues the campaign exactly where it stopped.
var ErrInterrupted = errors.New("soak: interrupted at checkpoint barrier; resume to continue")

// DefaultCheckpointEveryWindows is the default segment length.
const DefaultCheckpointEveryWindows = 24

// CheckpointOptions configures crash-safe segment execution for Soak.
type CheckpointOptions struct {
	// Dir is the checkpoint directory. Empty runs the campaign without a
	// store: one segment spans the horizon, and Resume, StopAfterSegments
	// and ShouldStop do not apply.
	Dir string
	// EveryWindows is the segment length in scrub windows between
	// checkpoint barriers. Defaults to DefaultCheckpointEveryWindows.
	// It participates in the campaign identity: resuming with a different
	// segmentation would change batch-level telemetry.
	EveryWindows int
	// Resume loads the newest valid snapshot from Dir before running. A
	// directory with no checkpoint starts a fresh campaign; a checkpoint
	// written by a different configuration is refused
	// (checkpoint.ErrIdentityMismatch).
	Resume bool
	// StopAfterSegments, when positive, stops the campaign with
	// ErrInterrupted once that many segment barriers have been saved in
	// this process. It is the deterministic "kill at round k" hook the
	// resume property tests and `make soak-resume-quick` use.
	StopAfterSegments int
	// ShouldStop is polled at every segment barrier (after the save); a
	// true return stops the campaign with ErrInterrupted. The signal
	// handler in cmd/soak uses this for SIGINT/SIGTERM: the in-flight
	// segment completes, the checkpoint is written, then the process exits.
	ShouldStop func() bool

	// beforeJob, when non-nil, runs at the start of every (segment, chip)
	// job. The crash-injection tests set it to kill (panic) workers at
	// seed-chosen points, proving the retry path restores start-of-segment
	// state exactly.
	beforeJob func(segment, chip int)
}

// State file names carry the checkpoint sequence number so the previous
// generation's files survive a new save intact: corruption of the newest
// snapshot falls back to a fully verifiable older one instead of finding
// its files overwritten. The store prunes files referenced by neither
// manifest generation.
func campaignFileName(seq int) string { return fmt.Sprintf("campaign-%06d.ckpt", seq) }

func chipFile(i, seq int) string { return fmt.Sprintf("chip-%03d-%06d.ckpt", i, seq) }

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
	e.F64(cfg.SpareFraction)
	e.Int(cfg.ResidentWords)
	e.Bool(cfg.Telemetry != nil)
	e.Int(cfg.TraceCapacity)
	e.Int(everyWindows)
	return checkpoint.Identity(e.Data()), nil
}

// campaignMeta is the fleet-level state saved at every barrier alongside
// the per-chip blobs.
type campaignMeta struct {
	segments    int // completed segment barriers
	done        []bool
	windowsDone []int
	quarantined []QuarantinedShard
	snapshot    *telemetry.Snapshot // nil when the campaign is uninstrumented
}

func encodeCampaignMeta(m *campaignMeta) []byte {
	e := checkpoint.NewEncoder()
	e.Section("soak.campaign")
	e.Int(m.segments)
	e.Len(len(m.done))
	for i := range m.done {
		e.Bool(m.done[i])
		e.Int(m.windowsDone[i])
	}
	e.Len(len(m.quarantined))
	for _, q := range m.quarantined {
		e.Int(q.Chip)
		e.U64(q.Seed)
		e.Int(q.Windows)
		e.Int(q.Attempts)
		e.Str(q.Reason)
	}
	if m.snapshot != nil {
		e.Bool(true)
		m.snapshot.EncodeState(e)
	} else {
		e.Bool(false)
	}
	return e.Data()
}

func decodeCampaignMeta(blob []byte, chips int) (*campaignMeta, error) {
	d := checkpoint.NewDecoder(blob)
	d.Section("soak.campaign")
	m := &campaignMeta{segments: d.Int()}
	n := d.Len(1 << 20)
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n != chips {
		return nil, fmt.Errorf("soak: campaign meta covers %d chips, config has %d", n, chips)
	}
	m.done = make([]bool, n)
	m.windowsDone = make([]int, n)
	for i := 0; i < n; i++ {
		m.done[i] = d.Bool()
		m.windowsDone[i] = d.Int()
	}
	nq := d.Len(1 << 20)
	if err := d.Err(); err != nil {
		return nil, err
	}
	for i := 0; i < nq; i++ {
		m.quarantined = append(m.quarantined, QuarantinedShard{
			Chip:     d.Int(),
			Seed:     d.U64(),
			Windows:  d.Int(),
			Attempts: d.Int(),
			Reason:   d.Str(),
		})
	}
	if d.Bool() {
		snap, err := telemetry.DecodeSnapshot(d)
		if err != nil {
			return nil, err
		}
		m.snapshot = snap
	}
	return m, d.Err()
}

// restoreSoakRunner rebuilds one chip runner: a fresh campaign start for a
// nil blob (segment 0 retry, or a fresh campaign), otherwise construction
// plus state restore from the start-of-segment blob.
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

// soakJob is what one (segment, chip) job hands back to the barrier.
type soakJob struct {
	finished bool            // the chip reached the horizon
	windows  int             // scrub windows completed so far
	blob     []byte          // start-of-next-segment state; nil for a chip finished without a store
	final    *chipSoakResult // the finalized report, set when finished
}

// soakSegments is the soak executor. It runs the campaign in segments of
// EveryWindows scrub windows, one parallel job per active chip, with a
// barrier after each segment. Without a checkpoint Dir there is no identity
// and no store, and one segment runs each chip to the horizon: the same work
// as a flat map over the fleet.
func soakSegments(ctx context.Context, cfg SoakConfig, seeds []uint64) (*SoakReport, error) {
	var ck CheckpointOptions
	if cfg.Checkpoint != nil {
		ck = *cfg.Checkpoint
	}
	every := 0
	var (
		store    *checkpoint.Store
		identity string
	)
	if ck.Dir != "" {
		every = ck.EveryWindows
		if every <= 0 {
			every = DefaultCheckpointEveryWindows
		}
		var err error
		if identity, err = soakIdentity(cfg, every); err != nil {
			return nil, err
		}
		if store, err = checkpoint.NewStore(ck.Dir); err != nil {
			return nil, err
		}
	}

	n := cfg.Chips
	// The shard-size bound caps concurrent materializations; each job drops
	// its runner on return when the bound is set, so nothing else stays live.
	workers := fleetWorkers(cfg.Workers, cfg.ShardSize)
	runners := make([]*soakRunner, n)
	blobs := make([][]byte, n)
	done := make([]bool, n)
	windowsDone := make([]int, n)
	results := make([]*chipSoakResult, n)
	quarantined := map[int]QuarantinedShard{}
	segments := 0

	if store != nil && ck.Resume {
		man, files, err := store.Load(identity)
		switch {
		case err == nil:
			meta, err := decodeCampaignMeta(files[campaignFileName(man.Seq)], n)
			if err != nil {
				return nil, fmt.Errorf("soak: resume: %w", err)
			}
			segments = meta.segments
			done = meta.done
			windowsDone = meta.windowsDone
			for _, q := range meta.quarantined {
				quarantined[q.Chip] = q
			}
			for i := 0; i < n; i++ {
				if b, ok := files[chipFile(i, man.Seq)]; ok {
					blobs[i] = b
				}
			}
			if cfg.Telemetry != nil {
				cfg.Telemetry.RestoreSnapshot(meta.snapshot)
			}
		case errors.Is(err, checkpoint.ErrNoCheckpoint):
			// Fresh directory: start from the beginning.
		default:
			return nil, err
		}
	}

	savedThisProcess := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// The active set: chips still short of the horizon and not
		// quarantined. Deterministic at every segment regardless of how
		// the campaign was split across processes.
		var active []int
		for i := 0; i < n; i++ {
			if _, q := quarantined[i]; !done[i] && !q {
				active = append(active, i)
			}
		}
		if len(active) == 0 {
			break
		}

		jobs, failures, err := parallel.MapPartial(ctx, len(active), workers, cfg.ShardPolicy,
			func(ctx context.Context, k int) (soakJob, error) {
				i := active[k]
				if ck.beforeJob != nil {
					ck.beforeJob(segments, i)
				}
				// Take the live runner; a panic or error below leaves the
				// slot nil, so the retry (or the next segment after a
				// quarantine decision) rebuilds from the start-of-segment
				// blob instead of trusting half-advanced state.
				r := runners[i]
				runners[i] = nil
				if r == nil {
					var err error
					if r, err = restoreSoakRunner(cfg, i, seeds[i], blobs[i]); err != nil {
						return soakJob{}, err
					}
				}
				finished, err := r.runWindows(ctx, every)
				if err != nil {
					return soakJob{}, fmt.Errorf("soak chip %d: %w", i, err)
				}
				job := soakJob{finished: finished, windows: r.rep.Windows}
				// A finished chip's blob matters only to a later process
				// resuming from the store.
				if store != nil || !finished {
					if job.blob, err = r.encodeState(); err != nil {
						return soakJob{}, fmt.Errorf("soak chip %d: encode: %w", i, err)
					}
				}
				switch {
				case finished:
					final := r.finalize()
					job.final = &final
				case cfg.ShardSize <= 0:
					runners[i] = r
				}
				return job, nil
			})
		if err != nil {
			return nil, err
		}
		if len(failures) > 0 && cfg.ShardPolicy.Attempts == 0 {
			// No shard tolerance requested: preserve fail-fast semantics.
			f := failures[0]
			return nil, fmt.Errorf("soak chip %d: %s", active[f.Job], f.Reason())
		}
		for _, f := range failures {
			i := active[f.Job]
			quarantined[i] = QuarantinedShard{
				Chip: i, Seed: seeds[i], Windows: windowsDone[i],
				Attempts: f.Attempts, Reason: f.Reason(),
			}
		}
		for k, i := range active {
			if _, q := quarantined[i]; q {
				continue
			}
			j := jobs[k]
			done[i], windowsDone[i], blobs[i], results[i] = j.finished, j.windows, j.blob, j.final
		}
		segments++
		if store == nil {
			continue
		}

		meta := &campaignMeta{
			segments:    segments,
			done:        done,
			windowsDone: windowsDone,
			quarantined: sortedQuarantine(quarantined),
		}
		if cfg.Telemetry != nil {
			meta.snapshot = cfg.Telemetry.Snapshot()
		}
		files := map[string][]byte{campaignFileName(segments): encodeCampaignMeta(meta)}
		for i := 0; i < n; i++ {
			if blobs[i] != nil {
				files[chipFile(i, segments)] = blobs[i]
			}
		}
		if err := store.Save(segments, identity, files); err != nil {
			return nil, err
		}
		savedThisProcess++
		if ck.StopAfterSegments > 0 && savedThisProcess >= ck.StopAfterSegments {
			return nil, ErrInterrupted
		}
		if ck.ShouldStop != nil && ck.ShouldStop() {
			return nil, ErrInterrupted
		}
	}

	// Every chip that finished in this process was finalized by its last
	// job. A chip that finished in an earlier process is rebuilt from its
	// final blob, so a resumed campaign reports exactly what the
	// uninterrupted one would. Quarantined chips keep a zero result.
	out := make([]chipSoakResult, n)
	for i, res := range results {
		if _, q := quarantined[i]; q {
			continue
		}
		if res == nil {
			if blobs[i] == nil {
				return nil, fmt.Errorf("soak chip %d: marked done but no state blob", i)
			}
			r, err := restoreSoakRunner(cfg, i, seeds[i], blobs[i])
			if err != nil {
				return nil, err
			}
			f := r.finalize()
			res = &f
		}
		out[i] = *res
	}
	return assembleSoakReport(cfg, out, sortedQuarantine(quarantined)), nil
}

func sortedQuarantine(m map[int]QuarantinedShard) []QuarantinedShard {
	if len(m) == 0 {
		return nil
	}
	out := make([]QuarantinedShard, 0, len(m))
	for _, q := range m {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Chip < out[j].Chip })
	return out
}
