// Package rngfix is the rng-stream-discipline fixture: every concurrency
// boundary the analyzer guards (goroutine bodies, parallel job closures),
// with the two legal stream disciplines (derive inside the closure, select
// a per-job slot by the job index) and the shared-capture violations.
package rngfix

import (
	"context"

	"reaper/internal/parallel"
	"reaper/internal/rng"
)

type sim struct {
	src   *rng.Source
	banks []*rng.Source
}

func legalDisciplines(ctx context.Context, seeds []*rng.Source, seed uint64) error {
	// Legal: each job derives its own stream from pure (seed, key) inputs.
	_, err := parallel.Map(ctx, 4, 2, func(ctx context.Context, i int) (uint64, error) {
		s := rng.Derive(seed, uint64(i))
		return s.Uint64(), nil
	})
	if err != nil {
		return err
	}
	// Legal: each job reads only its per-job slot, selected by the index.
	return parallel.ForEach(ctx, len(seeds), 2, func(ctx context.Context, i int) error {
		_ = seeds[i].Uint64()
		return nil
	})
}

func sharedCaptures(ctx context.Context, src *rng.Source, seeds []*rng.Source, done chan struct{}) error {
	go func() {
		_ = src.Uint64() // WANT rng-stream-discipline
		close(done)
	}()
	// A fixed slot is as shared as a bare capture: every job draws from it.
	err := parallel.ForEach(ctx, 4, 2, func(ctx context.Context, i int) error {
		_ = seeds[0].Uint64() // WANT rng-stream-discipline
		return nil
	})
	if err != nil {
		return err
	}
	return parallel.Do(ctx, 2,
		func(ctx context.Context) error {
			_ = src.Uint64() // WANT rng-stream-discipline
			return nil
		},
		func(ctx context.Context) error {
			s := src.Split(1) // WANT rng-stream-discipline
			_ = s.Uint64()
			return nil
		},
	)
}

func (m *sim) shardSweep(ctx context.Context, vals []float64) error {
	// Legal: per-bank slot selected by the job index.
	err := parallel.ForEach(ctx, len(m.banks), 2, func(ctx context.Context, i int) error {
		vals[i] = m.banks[i].Float64()
		return nil
	})
	if err != nil {
		return err
	}
	// Illegal: the receiver's shared stream reached every job.
	err = parallel.ForEach(ctx, len(vals), 2, func(ctx context.Context, i int) error {
		vals[i] = m.src.Float64() // WANT rng-stream-discipline
		return nil
	})
	if err != nil {
		return err
	}
	// Illegal: ranging a captured container hands every stream to one job.
	return parallel.ForEach(ctx, 1, 1, func(ctx context.Context, i int) error {
		for _, s := range m.banks { // WANT rng-stream-discipline
			_ = s.Uint64()
		}
		return nil
	})
}
