package dram

import (
	"reflect"
	"slices"
	"sort"
)

// This file implements incremental re-profiling: a cache of sweep
// classifications keyed by the sweep's full condition signature.
//
// Classification — the split of the weak population into skipped (p = 0),
// deterministically flipped (p = 1), and sampling-band (0 < p < 1) cells —
// is a pure function of the stored content, the temperature, the elapsed
// window, the auto-refresh interval, and immutable per-cell parameters. A
// steady-state profiling cadence (same pattern, same wait, same conditions
// every round) therefore reclassifies identically every round; only the band
// sampling actually consumes randomness. The cache stores one entry per
// distinct signature and replays it on a hit, skipping the O(candidates)
// classification (classifyBulk's threshold tests and DPD hashes, and the
// rank-bitmap walk) entirely.
//
// Replay is byte-identical to the full path by construction, so the cache is
// always on:
//
//   - Draws: only band cells draw, in bit order, and the cached band is the
//     exact bit-sorted band the full path would rebuild.
//   - Fail lists and counters: deterministic flips replay from the entry;
//     stuck cells are skipped exactly where the full path skips them (the
//     entry is built stuck-free, and a small adjustment below reconciles the
//     Skipped counter against the live stuck overlay).
//
// Invalidation rules (what dirties a cell):
//
//   - Content, temperature, elapsed window, auto-refresh: part of the key —
//     a change is a different signature, not an invalidation.
//   - Injected cells (inject.go): appended to a device-wide dirty list; each
//     entry records the list length it has folded in and classifies only the
//     tail on its next hit, through the full path's cursor test (pastCursor)
//     and classifier (classifyBulk).
//   - RescrambleDPD: mutates dpdSeed, which classification hashes — the only
//     event that silently changes an existing cell's classification, so it
//     drops the whole cache.
//   - VRT state and stuck state: deliberately NOT invalidation events. VRT
//     cells are always band-classified (their state matters only at sampling
//     time), and stuck cells are reconciled at replay.
//   - Partial writes (WriteWord) create deviant rows, which block
//     both building and hitting the cache until the next bulk write clears
//     them.
const (
	// maxRoundEntries bounds the cache; profiling cadences cycle a dozen
	// patterns at a handful of conditions. Overflow drops the cache rather
	// than evicting, keeping the dirty-list bookkeeping trivially consistent.
	maxRoundEntries = 64
	// maxDirtyCells bounds the dirty tail an entry may have to fold; beyond
	// it a full reclassification is cheaper than carrying the list.
	maxDirtyCells = 4096
)

// roundKey is the complete condition signature of a full-device sweep over
// undeviated content. Content identity uses the descriptor's == (patterns
// are small comparable structs); non-comparable descriptors simply never
// enter the cache.
type roundKey struct {
	data    RowData
	tempC   float64
	elapsed float64
	autoRef float64
}

// roundEntry is one cached classification: the skip total, the deterministic
// flips and the sampling band (both in bit order, as the classification's
// rank walk emits them), the band's memoized draw probabilities (nil until
// the entry's first replay), and how much of the device dirty list it has
// folded in.
type roundEntry struct {
	skipped  uint64
	flips    []flipRec
	band     []*weakCell
	probs    []bandProb //lint:serialized-elsewhere draw-free memo; a restored entry allocates it on first replay like a new one
	dirtyLen int
}

// flipRec is one deterministic flip with its wrong value pre-resolved (the
// stored bit is a pure function of the round key, so replay need not re-read
// the content descriptor).
type flipRec struct {
	c     *weakCell
	wrong uint8
}

// bandProb memoizes one band cell's replay inputs at the entry's signature:
// its stored bit and, for a non-VRT cell, its draw probabilities.
// Everything the sampling branch of sampleReadBit computes — the
// neighbourhood code, the DPD hash, the temperature scale, the normal CDF —
// is a pure function of the round key for a non-VRT cell, so replay can skip
// straight to the Bernoulli draws; a VRT cell's retention mean moves with
// simulated time, so it is sampled in full. The memo is allocated on the
// entry's first replay, since most entries (fresh random patterns) are never
// replayed, and each cell's slot is filled on its first draw (ok=false until
// then).
type bandProb struct {
	// stick is the probability that a failure stuck at one of the whole
	// auto-refresh cycles the window spans (0 when it spans none), and p the
	// failure probability of the residual window, drawn only when stick's
	// draw fails. written is the cell's stored bit under the entry's content.
	stick, p float64
	written  uint8
	ok       bool
}

// IncrStats counts, cumulatively over a device's lifetime, the incremental
// round-cache activity during full-device sweeps.
type IncrStats struct {
	// FastSweeps is sweeps served from a cached classification.
	FastSweeps uint64
	// FullSweeps is sweeps that ran the full classification.
	FullSweeps uint64
	// ReusedCells is flip and band dispositions replayed from cache entries.
	ReusedCells uint64
	// DirtyCells is injected cells classified on demand into live entries.
	DirtyCells uint64
}

// Add returns the element-wise sum of two stats (module-level aggregation).
func (s IncrStats) Add(o IncrStats) IncrStats {
	return IncrStats{
		FastSweeps:  s.FastSweeps + o.FastSweeps,
		FullSweeps:  s.FullSweeps + o.FullSweeps,
		ReusedCells: s.ReusedCells + o.ReusedCells,
		DirtyCells:  s.DirtyCells + o.DirtyCells,
	}
}

// Sub returns the element-wise difference s - o (per-round deltas).
func (s IncrStats) Sub(o IncrStats) IncrStats {
	return IncrStats{
		FastSweeps:  s.FastSweeps - o.FastSweeps,
		FullSweeps:  s.FullSweeps - o.FullSweeps,
		ReusedCells: s.ReusedCells - o.ReusedCells,
		DirtyCells:  s.DirtyCells - o.DirtyCells,
	}
}

// IncrStats returns the device's cumulative round-cache counters.
func (d *Device) IncrStats() IncrStats { return d.incr }

// comparableRowData reports whether a content descriptor's dynamic type
// supports ==, the identity test round keys and the WriteAll rewrite
// detection rely on.
func comparableRowData(data RowData) bool {
	return data != nil && reflect.TypeOf(data).Comparable()
}

// roundCacheable reports whether the classification about to run can be
// recorded: cache on, no deviant rows, no stuck overlay (entries are built
// stuck-free so replay can reconcile against any live overlay), and content
// the key can identify.
func (d *Device) roundCacheable() bool {
	return d.cacheOn && len(d.rows) == 0 && len(d.stuckList) == 0 && d.bulkComparable
}

// lookupRound returns the cached classification for the sweep signature, or
// nil when the sweep must classify in full.
func (d *Device) lookupRound(elapsed float64) *roundEntry {
	if !d.cacheOn || len(d.rounds) == 0 || len(d.rows) != 0 || !d.bulkComparable {
		return nil
	}
	return d.rounds[roundKey{data: d.bulkData, tempC: d.tempC, elapsed: elapsed, autoRef: d.autoRef}]
}

// storeRound records a freshly built classification. On overflow the whole
// cache is dropped first (see maxRoundEntries); the new entry then owns an
// empty dirty list.
func (d *Device) storeRound(key roundKey, e *roundEntry) {
	if d.rounds == nil {
		d.rounds = make(map[roundKey]*roundEntry)
	}
	if len(d.rounds) >= maxRoundEntries {
		clear(d.rounds)
		d.dirtyCells = d.dirtyCells[:0]
		e.dirtyLen = 0
	}
	d.rounds[key] = e
}

// invalidateRounds drops every cached classification and the dirty list
// (they are only meaningful relative to live entries).
func (d *Device) invalidateRounds() {
	if len(d.rounds) > 0 {
		clear(d.rounds)
	}
	d.dirtyCells = d.dirtyCells[:0]
}

// noteDirtyCell records a newly injected cell for incremental
// reclassification. Tracking is only needed while entries exist — an entry
// built later classifies the full population, injected cells included.
func (d *Device) noteDirtyCell(c *weakCell) {
	if !d.cacheOn || len(d.rounds) == 0 {
		return
	}
	if len(d.dirtyCells) >= maxDirtyCells {
		d.invalidateRounds()
		return
	}
	d.dirtyCells = append(d.dirtyCells, c)
}

// refreshRound folds the dirty-list tail the entry has not seen yet:
// injected cells are classified at the entry's signature, through the full
// path's cursor test and classifier, and appended to its skip total, flips
// (a flip needs written == chargedVal, so its wrong value is chargedVal^1),
// or band (bit-sorted insert, and into the probability memo once it exists).
func (d *Device) refreshRound(e *roundEntry, scale, eff float64) {
	if e.dirtyLen >= len(d.dirtyCells) {
		return
	}
	for _, c := range d.dirtyCells[e.dirtyLen:] {
		d.incr.DirtyCells++
		if pastCursor(activationKey(c), scale, eff) {
			e.skipped++
			continue
		}
		switch d.classifyBulk(c, scale, eff) {
		case dispSkip:
			e.skipped++
		case dispFlip:
			j := sort.Search(len(e.flips), func(i int) bool { return e.flips[i].c.bit >= c.bit })
			e.flips = slices.Insert(e.flips, j, flipRec{c, c.chargedVal ^ 1})
		case dispBand:
			j := sort.Search(len(e.band), func(i int) bool { return e.band[i].bit >= c.bit })
			e.band = slices.Insert(e.band, j, c)
			if e.probs != nil {
				e.probs = slices.Insert(e.probs, j, bandProb{})
			}
		}
	}
	e.dirtyLen = len(d.dirtyCells)
}

// sweepFromCache is the fast path of sweep: replay a cached classification
// instead of rebuilding it. Counters, fail lists, stuck bookkeeping, and the
// seed stream advance exactly as sweepClassify would advance them at the
// device's current state.
func (d *Device) sweepFromCache(e *roundEntry, now, scale, eff float64, collect bool) {
	d.refreshRound(e, scale, eff)
	if e.probs == nil {
		e.probs = make([]bandProb, len(e.band))
	}
	d.incr.FastSweeps++
	d.incr.ReusedCells += uint64(len(e.flips) + len(e.band))

	// Skipped-counter parity with the full path at the live stuck overlay:
	// the full path skips a stuck candidate before any disposition counter,
	// while the (stuck-free) entry counted that cell wherever it classified.
	// Subtract the stuck cells the entry counted as skips; stuck cells beyond
	// the activation cursor are inside the bulk (len - k) skip on both paths
	// and need no adjustment, and stuck flip/band cells were never counted
	// as skips.
	skipped := e.skipped
	for _, c := range d.stuckList {
		if c.stuck < 0 {
			continue // stale entry; the full path classifies it normally too
		}
		if !pastCursor(activationKey(c), scale, eff) && d.classifyBulk(c, scale, eff) == dispSkip {
			skipped--
		}
	}
	d.idx.Skipped += skipped

	// Band sampling and flip replay. The cached band is bit-sorted, so the
	// walk consumes the stream exactly as the full path's merged walk would
	// (cache hits imply no deviant rows to merge). Flips consume no draws,
	// so interleaving them by bit is stream-neutral and keeps the emitted
	// fails bit-ordered: over an empty stuck overlay, failBits copies them
	// straight through.
	fi := 0
	for bi, c := range e.band {
		for fi < len(e.flips) && e.flips[fi].c.bit < c.bit {
			d.replayFlip(e.flips[fi], collect)
			fi++
		}
		if c.stuck >= 0 {
			continue
		}
		d.idx.Sampled++
		got, written := d.sampleBandCached(e, bi, c, now)
		if collect && got != written {
			d.fails.add(c)
		}
	}
	for ; fi < len(e.flips); fi++ {
		d.replayFlip(e.flips[fi], collect)
	}
}

// replayFlip commits one cached deterministic flip (no draws).
func (d *Device) replayFlip(f flipRec, collect bool) {
	if f.c.stuck >= 0 {
		return
	}
	d.markStuck(f.c, f.wrong)
	d.idx.Flipped++
	if collect {
		d.fails.add(f.c)
	}
}

// sampleBandCached samples one band cell of a cached entry, drawing the
// exact Bernoulli sequence sampleReadBit would draw but against the cell's
// memoized stored bit and, for a non-VRT cell, probabilities (filled on the
// cell's first replay; see bandProb). VRT cells go through the full sampler.
func (d *Device) sampleBandCached(e *roundEntry, i int, c *weakCell, now float64) (got, written uint8) {
	bp := &e.probs[i]
	if !bp.ok {
		bp.written = d.bulkBit(c.bit)
		if c.vrt == nil {
			code := d.neighborhoodCodeOf(c)
			k, resid := d.refreshCycles(now - d.bulkTime)
			if k > 0 {
				bp.stick = d.clippedFailProb(c, d.autoRef, k, bp.written, code, now)
			}
			bp.p = d.clippedFailProb(c, resid, 0, bp.written, code, now)
		}
		bp.ok = true
	}
	written = bp.written
	if c.vrt != nil {
		return d.sampleReadBit(c, written, now, d.bulkTime), written
	}
	if d.src.Bernoulli(bp.stick) || d.src.Bernoulli(bp.p) {
		d.markStuck(c, written^1)
		return written ^ 1, written
	}
	return written, written
}
