package dram

import (
	"math"
	"math/bits"
	"slices"
	"sort"
)

// This file implements the sparse active-window read path. The observation:
// at any (elapsed, temperature) the overwhelming majority of weak cells sit
// deterministically outside their mu ± zClip*sigma window — failure
// probability exactly 0 or exactly 1 — and rng.Source.Bernoulli consumes no
// draw for p <= 0 or p >= 1. A full-device sweep therefore only needs to run
// sampleReadBit for the cells whose probability is strictly inside (0, 1);
// every other cell can be skipped (p = 0) or flipped via the index (p = 1)
// without touching the seed stream, making the sparse path byte-identical to
// the dense walk by construction.
//
// The index is a single sort of the weak population by activation key
//
//	key(c) = (c.mu - zClip*c.sigma) * (1 - keyMargin)
//
// at reference temperature, with no DPD or VRT adjustment. The key is a
// conservative lower bound on the cell's true p = 0 threshold under every
// runtime condition, because each adjustment only raises the threshold:
//
//   - Temperature scales mu and sigma by the same positive factor
//     (vendor.RetentionScale), so the threshold scales linearly and the p = 0
//     test becomes key*scale > eff — applied in the binary-search predicate,
//     which is why SetTemperature needs no index invalidation.
//   - dpdFactor(code) >= 1 multiplies mu only, so any stored pattern (and any
//     RescrambleDPD reseed) moves the true threshold right of the key.
//   - A VRT cell's mu field is its low-retention mean, the smaller of its two
//     states, so the key is pessimistic over both; skipping the cell also
//     skips its lazy vrtState.advance, which is safe because the per-cell VRT
//     stream catches up incrementally and draws the same values whenever it
//     is next consulted.
//
// keyMargin pushes the stored key ~1e-9 relative below the analytic
// threshold so float rounding in key*scale can only over-include a cell into
// the candidate band, never skip one that sampleReadBit would have sampled.
// Candidates are then skipped, flipped, or sampled as classifyBulk, the one
// sweep classifier, places them: its zClip test is clipWindow, the same one
// clippedFailProb applies before a draw.
//
// The index orders cells by key, not by bit, and the seed-stream contract
// requires d.src draws to occur in global bit order. Classification itself
// draws nothing, so it may run in key order; it marks each surviving band
// cell at its rank (its index in the bit-ordered weak slice) in a bitmap,
// and one walk over the marked words reads the band back in bit order, with
// no comparison sort. The band is then merged with the deviant-row cells
// (which always take the original slow path) into one bit-ordered sampling
// walk.
const keyMargin = 1e-9

// activationKey returns the cell's sort key: a conservative reference-
// temperature lower bound on the elapsed time at which its failure
// probability can first leave zero. Always positive, because construction
// caps sigma at mu/5 and zClip*1/5 < 1.
func activationKey(c *weakCell) float64 {
	return (c.mu - zClip*c.sigma) * (1 - keyMargin)
}

// IndexStats counts, cumulatively over a device's lifetime, how the sparse
// active-window index disposed of weak cells during full-device sweeps.
type IndexStats struct {
	// Skipped is cells excluded with zero RNG work: outside the active band
	// by binary search, or p = 0 by the exact per-cell test (discharged
	// stored value, or below the DPD-adjusted threshold).
	Skipped uint64
	// Flipped is deterministic p = 1 failures applied via the index without
	// evaluating the failure CDF or consuming a draw.
	Flipped uint64
	// Sampled is cells routed through sampleReadBit on the bulk fast path
	// (probability strictly inside (0,1), plus VRT cells in the band).
	Sampled uint64
	// Slowpath is cells handled by the original slow path: cells in rows
	// with per-row deviations, plus stuck-overlay visits.
	Slowpath uint64
}

// Add returns the element-wise sum of two stats (module-level aggregation).
func (s IndexStats) Add(o IndexStats) IndexStats {
	return IndexStats{
		Skipped:  s.Skipped + o.Skipped,
		Flipped:  s.Flipped + o.Flipped,
		Sampled:  s.Sampled + o.Sampled,
		Slowpath: s.Slowpath + o.Slowpath,
	}
}

// Sub returns the element-wise difference s - o (per-round deltas).
func (s IndexStats) Sub(o IndexStats) IndexStats {
	return IndexStats{
		Skipped:  s.Skipped - o.Skipped,
		Flipped:  s.Flipped - o.Flipped,
		Sampled:  s.Sampled - o.Sampled,
		Slowpath: s.Slowpath - o.Slowpath,
	}
}

// IndexStats returns the device's cumulative sparse-index counters.
func (d *Device) IndexStats() IndexStats { return d.idx }

// rebuildIndex (re)derives the activation index from the weak population,
// which must be in bit order, with working memory of its own.
func (d *Device) rebuildIndex() {
	n := len(d.weak)
	d.buildIndex(make([]uint64, n), make([]uint32, n), make([]uint64, n), make([]uint32, n))
}

// buildIndex derives the activation index from the weak population, which
// must be in bit order, in the working memory it is lent: keys and order
// hold the sort's pairs and tmpK and tmpV its scratch, each at least as long
// as the population, and construction lends its bit table's arrays. The
// order is the one a comparison sort by (key, bit) gives: a stable LSD radix
// sort of (orderKey, weak index) pairs keeps equal keys in weak's ascending
// bit order, which is exactly the bit tie-break. The radix sort is linear in
// the population; a comparison sort of the same pointer-free (key, index)
// pairs made NewDevice about 40% slower on a 32 Mbit chip.
//
// Each cell's key is computed once. Its exact bits wait in actKeys, at the
// cell's weak index, while the sort orders their orderKey images; then they
// pass through keys, which the sorted images no longer need, to their
// places in index order.
func (d *Device) buildIndex(keys []uint64, order []uint32, tmpK []uint64, tmpV []uint32) {
	n := len(d.weak)
	keys, order = keys[:n], order[:n]
	d.actKeys = make([]float64, n)
	for i, c := range d.weak {
		k := activationKey(c)
		d.actKeys[i] = k
		keys[i] = orderKey(k)
		order[i] = uint32(i)
	}
	radixSortPairs(keys, order, tmpK[:n], tmpV[:n])
	for i, k := range d.actKeys {
		keys[i] = math.Float64bits(k)
	}
	d.actCells = make([]*weakCell, n)
	for j, i := range order {
		d.actCells[j] = d.weak[i]
		d.actKeys[j] = math.Float64frombits(keys[i])
	}
}

// orderKey maps a float64 to a uint64 whose unsigned order is cmp.Compare's
// order on the floats: NaN lowest, -0 equal to +0, and otherwise the IEEE
// order (the sign bit flipped for positives, every bit for negatives).
// Construction keys are positive, but a corrupt restore can carry anything.
func orderKey(f float64) uint64 {
	if f != f {
		return 0
	}
	if f == 0 {
		f = 0 // -0 sorts with +0
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// radixSortPairs sorts keys ascending, stably, applying the same permutation
// to vals: an LSD radix sort by byte that skips every byte all keys share.
// tmpK and tmpV, as long as keys, are its scratch.
func radixSortPairs(keys []uint64, vals []uint32, tmpK []uint64, tmpV []uint32) {
	if len(keys) < 2 {
		return
	}
	var diff uint64
	for _, k := range keys {
		diff |= k ^ keys[0]
	}
	srcK, srcV, dstK, dstV := keys, vals, tmpK, tmpV
	var count [256]int
	for shift := uint(0); shift < 64; shift += 8 {
		if diff>>shift&0xff == 0 {
			continue
		}
		count = [256]int{}
		for _, k := range srcK {
			count[k>>shift&0xff]++
		}
		pos := 0
		for b, c := range count {
			count[b] = pos
			pos += c
		}
		for i, k := range srcK {
			b := k >> shift & 0xff
			dstK[count[b]] = k
			dstV[count[b]] = srcV[i]
			count[b]++
		}
		srcK, dstK = dstK, srcK
		srcV, dstV = dstV, srcV
	}
	if &srcK[0] != &keys[0] {
		copy(keys, srcK)
		copy(vals, srcV)
	}
}

// indexInsert adds one cell to the activation index, preserving key order
// (fault injection adds cells one at a time to a live device).
func (d *Device) indexInsert(c *weakCell) {
	key := activationKey(c)
	j := sort.Search(len(d.actKeys), func(i int) bool {
		return d.actKeys[i] > key || (d.actKeys[i] == key && d.actCells[i].bit >= c.bit)
	})
	d.actKeys = slices.Insert(d.actKeys, j, key)
	d.actCells = slices.Insert(d.actCells, j, c)
}

// markStuck records a retention failure sticking into a cell: the read (or
// refresh) restored the wrong value, which the cell now returns until
// rewritten. Every flip site must go through here so the stuck overlay —
// walked by collecting sweeps in place of a full population scan — stays a
// superset of the cells with stuck >= 0. It also counts the flip.
func (d *Device) markStuck(c *weakCell, wrong uint8) {
	c.stuck = int8(wrong)
	d.flipsSoFar++
	if c.flags&cellStuckListed == 0 {
		c.flags |= cellStuckListed
		d.stuckList = append(d.stuckList, c)
	}
}

// dropStuckList empties the stuck overlay (bulk rewrites clear every stuck
// cell). Only overlay members can have stuck >= 0, so clearing via the list
// replaces the old full population walk.
func (d *Device) dropStuckList() {
	for _, c := range d.stuckList {
		c.stuck = -1
		c.flags &^= cellStuckListed
	}
	d.stuckList = d.stuckList[:0]
}

// rankSpan is the range of ranks marked in a rank bitmap since its last
// walk; it is empty while lo > hi. A walk reads only the words of the span,
// so its cost is bounded by the marked range, never the whole population.
type rankSpan struct{ lo, hi uint32 }

func emptyRankSpan() rankSpan { return rankSpan{lo: math.MaxUint32} }

// mark sets rank r in bitmap m and widens the span to cover it.
func (s *rankSpan) mark(m []uint64, r uint32) {
	m[r/64] |= 1 << (r % 64)
	s.lo, s.hi = min(s.lo, r), max(s.hi, r)
}

// ensureRankMarks sizes the rank bitmaps to the weak population: allocated
// on the first sweep and grown after injection, like d.band. Every walk
// clears the words it reads, so both are all-zero between sweeps and a
// grown bitmap starts empty.
func (d *Device) ensureRankMarks() {
	if n := (len(d.weak) + 63) / 64; len(d.rankMarks) < n {
		d.rankMarks = make([]uint64, n)
		d.flipMarks = make([]uint64, n)
	}
}

// sweep is the shared implementation of ReadCompareAll (collect = true) and
// RestoreAll (collect = false): a full-device read-and-restore at simulated
// time now, returning the failing bit indices in ascending order when
// collecting.
//
// Draw-order equivalence with the dense walk: the cells visited by the
// bit-ordered merge below (active band + deviant rows) are a superset of the
// cells that consume d.src draws, visited in global bit order; all other
// cells provably consume no draws, so the seed stream advances exactly as
// the dense per-cell walk advanced it.
func (d *Device) sweep(now float64, collect bool) []uint64 {
	d.ensureRankMarks()
	d.fails.bits, d.fails.ranks = d.fails.bits[:0], d.fails.ranks[:0]
	elapsed := now - d.bulkTime
	scale := d.vend.RetentionScale(d.tempC)
	// eff is the largest elapsed value any failure probability is evaluated
	// at this sweep. Under auto-refresh the per-cycle trial window is the
	// refresh interval (and the residual window is shorter still), so a cell
	// with p(eff) = 0 contributes no stick probability and no draws at all.
	eff := elapsed
	if d.autoRef > 0 && eff > d.autoRef {
		eff = d.autoRef
	}

	// Stuck overlay: cells corrupted by earlier sweeps read back their stuck
	// value regardless of elapsed time, so a collecting sweep must visit them
	// even when the active band is empty. Walked before classification so a
	// cell flipped below is never reported twice; entries whose stuck state
	// was cleared by a partial write are compacted out in passing.
	if collect && len(d.stuckList) > 0 {
		live := d.stuckList[:0]
		for _, c := range d.stuckList {
			if c.stuck < 0 {
				c.flags &^= cellStuckListed
				continue
			}
			live = append(live, c)
			if len(d.rows) > 0 {
				if _, deviant := d.rows[d.geom.rowOfBit(c.bit)]; deviant {
					continue // the deviant-row walk below reports it
				}
			}
			d.idx.Slowpath++
			if uint8(c.stuck) != d.bulkBit(c.bit) {
				d.fails.add(c)
			}
		}
		d.stuckList = live
	}

	if e := d.lookupRound(elapsed); e != nil {
		d.sweepFromCache(e, now, scale, eff, collect)
	} else {
		d.sweepClassify(now, elapsed, scale, eff, collect)
	}

	// Every row has now been read out and restored. Rows whose record holds
	// no content deviation are now indistinguishable from the bulk state
	// (restoredAt == bulkTime, bulk content), so dropping them restores the
	// no-deviation fast path for subsequent sweeps.
	d.bulkTime = now
	for r, rs := range d.rows {
		if rs.overrides == nil {
			delete(d.rows, r)
			continue
		}
		rs.restoredAt = now
	}
	d.readsDone++
	var out []uint64
	if collect && len(d.fails.ranks) > 0 {
		out = d.failBits()
	}
	return out
}

// failList holds the failing cells a collecting sweep reported, in report
// order (stuck overlay, then classification or replay): their bits, copied
// straight through when they arrived ascending, and their ranks, marked and
// walked when they did not.
type failList struct {
	bits  []uint64
	ranks []uint32
}

func (f *failList) add(c *weakCell) {
	f.bits = append(f.bits, c.bit)
	f.ranks = append(f.ranks, c.rank)
}

// failBits returns the bits of the sweep's failing cells in ascending order.
// Fails reported already ascending — a cached replay over an empty stuck
// overlay — are copied straight through. Otherwise each rank is marked and
// one walk over the marked words emits the bits, clearing the words as it
// goes.
func (d *Device) failBits() []uint64 {
	ranks := d.fails.ranks
	out := make([]uint64, len(ranks))
	for i := 1; i < len(ranks); i++ {
		if ranks[i] <= ranks[i-1] {
			return d.walkFails(ranks, out[:0])
		}
	}
	copy(out, d.fails.bits)
	return out
}

// walkFails is failBits' rank-bitmap path: it appends the fails' bits to out
// in rank order, which is bit order.
func (d *Device) walkFails(ranks []uint32, out []uint64) []uint64 {
	span := emptyRankSpan()
	for _, r := range ranks {
		span.mark(d.rankMarks, r)
	}
	for w := span.lo / 64; w <= span.hi/64; w++ {
		for m := d.rankMarks[w]; m != 0; m &= m - 1 {
			out = append(out, d.weak[w*64+uint32(bits.TrailingZeros64(m))].bit)
		}
		d.rankMarks[w] = 0
	}
	return out
}

// sweepClassify is the full classification path of a sweep: binary-search
// the activation index, classify every candidate, then sample the surviving
// band merged with the deviant rows. When the device state allows it, the
// classification is also recorded as a round-cache entry so the next sweep
// at this exact signature can skip straight to the band (incremental.go).
func (d *Device) sweepClassify(now, elapsed, scale, eff float64, collect bool) {
	// Binary-search the activation index to the active band: cells past the
	// cursor are deterministically p = 0 at every window this sweep
	// evaluates and are never touched.
	k := sort.Search(len(d.actKeys), func(i int) bool { return pastCursor(d.actKeys[i], scale, eff) })
	d.idx.Skipped += uint64(len(d.actKeys) - k)
	d.incr.FullSweeps++

	var e *roundEntry
	if d.roundCacheable() {
		e = &roundEntry{skipped: uint64(len(d.actKeys) - k), dirtyLen: len(d.dirtyCells)}
	}

	// Classify the candidates (key order; no draws happen here) with
	// classifyBulk: p = 0 skips, p = 1 flips via the index — both without a
	// draw, matching Bernoulli's no-draw contract — and only the strict
	// interior (and every VRT cell) joins the sampling band. Band cells are
	// marked at their rank in d.rankMarks, and flips (when an entry is being
	// built) in d.flipMarks, so the walk below reads both back in bit order.
	span := emptyRankSpan()
	nflips := 0
	haveDeviant := len(d.rows) > 0
	for _, c := range d.actCells[:k] {
		if c.stuck >= 0 {
			continue // no draw either way; the stuck overlay reports it
		}
		if haveDeviant {
			if _, deviant := d.rows[d.geom.rowOfBit(c.bit)]; deviant {
				continue // sampled with its row's overrides and restore time
			}
		}
		switch d.classifyBulk(c, scale, eff) {
		case dispSkip:
			d.idx.Skipped++
			if e != nil {
				e.skipped++
			}
		case dispFlip:
			// Deterministic failure. Without auto-refresh this is
			// Bernoulli(1); with it, p(interval) = 1 makes the stick
			// probability exactly 1 (-expm1(k*log1p(-1)) = 1). Neither
			// consumes a draw, so flipping here is seed-stream identical.
			// A flip needs written == chargedVal, so its wrong value is
			// chargedVal^1. The stuck overlay keeps this (key) order, which
			// EncodeDelta writes.
			d.markStuck(c, c.chargedVal^1)
			d.idx.Flipped++
			if e != nil {
				span.mark(d.flipMarks, c.rank)
				nflips++
			}
			if collect {
				d.fails.add(c)
			}
		case dispBand:
			span.mark(d.rankMarks, c.rank)
		}
	}

	// One walk over the marked words reads the band, and the entry's flips,
	// back in rank order, which is bit order, clearing each word as it goes.
	// Flip marks exist only when e != nil.
	band := d.band[:0]
	if nflips > 0 {
		e.flips = make([]flipRec, 0, nflips)
	}
	for w := span.lo / 64; w <= span.hi/64; w++ {
		for m := d.rankMarks[w]; m != 0; m &= m - 1 {
			band = append(band, d.weak[w*64+uint32(bits.TrailingZeros64(m))])
		}
		for m := d.flipMarks[w]; m != 0; m &= m - 1 {
			c := d.weak[w*64+uint32(bits.TrailingZeros64(m))]
			e.flips = append(e.flips, flipRec{c, c.chargedVal ^ 1})
		}
		d.rankMarks[w], d.flipMarks[w] = 0, 0
	}
	d.idx.Sampled += uint64(len(band))
	if e != nil {
		e.band = append(e.band, band...)
	}

	// Bit-ordered merge of the band (bulk content, bulk restore time) with
	// the deviant rows (per-row overrides and restore times — the
	// original slow path, which also covers candidates excluded above).
	bi := 0
	sampleBandBelow := func(limit uint64) {
		for bi < len(band) && band[bi].bit < limit {
			c := band[bi]
			bi++
			written := d.bulkBit(c.bit)
			got := d.sampleReadBit(c, written, now, d.bulkTime)
			if collect && got != written {
				d.fails.add(c)
			}
		}
	}
	if haveDeviant {
		devRows := make([]uint32, 0, len(d.rows))
		for r := range d.rows {
			devRows = append(devRows, r)
		}
		slices.Sort(devRows)
		rowBits := uint64(d.geom.RowBits())
		for _, row := range devRows {
			sampleBandBelow(uint64(row) * rowBits)
			rs := d.rows[row]
			for _, c := range d.rowCells(row) {
				d.idx.Slowpath++
				a := d.geom.AddrOf(c.bit)
				written := uint8(d.rowWord(rs, row, a.Word) >> uint(a.Bit) & 1)
				got := d.sampleReadBit(c, written, now, rs.restoredAt)
				if collect && got != written {
					d.fails.add(c)
				}
			}
		}
	}
	sampleBandBelow(math.MaxUint64)
	d.band = band[:0] // keep the scratch capacity for the next sweep
	if e != nil {
		d.storeRound(roundKey{data: d.bulkData, tempC: d.tempC, elapsed: elapsed, autoRef: d.autoRef}, e)
	}
}

// classifyBulk is the sweep classifier: the disposition of one candidate
// cell holding the bulk content at a sweep whose retention scale is scale
// and whose largest evaluated window is eff. VRT cells always join the band,
// because their retention mean moves with simulated time; a cell storing its
// discharged value is skipped; every other cell is placed against its zClip
// window, as clippedFailProb places it. It draws nothing and changes no
// counter, so the full path, a cached entry's dirty-list fold and its stuck
// reconciliation all reach the same disposition through it.
func (d *Device) classifyBulk(c *weakCell, scale, eff float64) disposition {
	if c.vrt != nil {
		return dispBand
	}
	if d.bulkBit(c.bit) != c.chargedVal {
		return dispSkip // storing the discharged value: leakage-immune
	}
	mu := c.mu * scale * c.dpdFactor(d.neighborhoodCodeOf(c))
	return clipWindow(eff, mu, c.sigma*scale)
}

// pastCursor reports whether a cell with activation key key lies past the
// sweep's activation cursor: p = 0 at every window a sweep at retention
// scale scale evaluates, whose largest is eff. No window opens unless eff > 0
// (NaN included). The full path binary-searches the index with it; a cached
// replay tests single cells with it.
func pastCursor(key, scale, eff float64) bool {
	return !(eff > 0) || key*scale > eff
}
