package dram

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"reaper/internal/parallel"
	"reaper/internal/rng"
)

// This file implements bank-sharded full-device sweeps: intra-chip
// parallelism for ReadCompareAll / RestoreAll on one big device.
//
// The single-stream device cannot parallelize a sweep — the seed-stream
// contract requires every draw to happen in global bit order, which is a
// sequential dependency. Config.BankStreams removes the dependency by giving
// each bank its own sampling stream, a pure function of (Seed, bank) via
// rng.Derive. Geometry is bank-major (bit / bankBits is the bank), so the
// global bit order restricted to one bank is that bank's bit order: a
// sequential sweep that routes each draw through srcFor consumes each bank
// stream in exactly the order a per-bank shard would, which makes the shard
// execution below byte-identical to the sequential banked sweep — and hence
// identical at every worker count.
//
// Shards share the device read-only (bulk content, geometry, row maps, the
// activation index) and mutate only per-cell state of cells in their own
// bank (stuck value, VRT advance, neighbourhood-code cache; row±1 neighbour
// reads stay inside the bank by construction). Everything device-wide —
// disposition counters, the failing-bit list, the stuck overlay, the round
// cache entry — is written into per-shard scratch and committed at the merge
// in bank order, so the result is deterministic by construction.

// bankStreamSalt offsets the rng.Derive keyspace of per-bank sampling
// streams away from other Derive users of the device seed.
const bankStreamSalt = 0xb401c5a1f00d0000

// srcFor returns the stream a draw for the given bit must come from: the
// device stream in default mode, the owning bank's stream in BankStreams
// mode.
func (d *Device) srcFor(bit uint64) *rng.Source {
	if d.bankSrcs == nil {
		return d.src
	}
	return d.bankSrcs[bit/d.bankBits]
}

// SetSweepWorkers bounds the goroutines a BankStreams-mode full-device sweep
// may shard across; n <= 1 (and the default 0) keeps sweeps on the calling
// goroutine. It has no effect in default single-stream mode, and results are
// byte-identical at every setting.
func (d *Device) SetSweepWorkers(n int) {
	if n < 1 {
		n = 1
	}
	d.sweepWorkers = n
}

// shardedMode reports whether full-device sweeps currently execute as
// parallel per-bank shards.
func (d *Device) shardedMode() bool {
	return d.bankSrcs != nil && d.sweepWorkers > 1 && d.geom.Banks > 1
}

// BankStats counts, cumulatively over a device's lifetime, the banked-mode
// sweep activity. Shards are counted logically (one per bank per banked
// sweep) so the series is identical at every worker count.
type BankStats struct {
	// BankedSweeps is full-device sweeps executed with per-bank streams.
	BankedSweeps uint64
	// BankShards is the logical per-bank shards those sweeps partitioned
	// into (BankedSweeps * Banks).
	BankShards uint64
}

// Add returns the element-wise sum of two stats (module-level aggregation).
func (s BankStats) Add(o BankStats) BankStats {
	return BankStats{
		BankedSweeps: s.BankedSweeps + o.BankedSweeps,
		BankShards:   s.BankShards + o.BankShards,
	}
}

// Sub returns the element-wise difference s - o (per-round deltas).
func (s BankStats) Sub(o BankStats) BankStats {
	return BankStats{
		BankedSweeps: s.BankedSweeps - o.BankedSweeps,
		BankShards:   s.BankShards - o.BankShards,
	}
}

// BankStats returns the device's cumulative banked-sweep counters.
func (d *Device) BankStats() BankStats { return d.bank }

// bankShard is the per-bank scratch of one sharded sweep: the bank's
// candidate cells, its sampling band, and everything the shard may not write
// into shared state — deterministic flips, newly stuck cells, failing bits,
// and disposition counters — all committed by mergeShard in bank order.
type bankShard struct {
	cand     []*weakCell
	band     []*weakCell
	flips    []flipRec
	newStuck []*weakCell
	fails    []uint64
	stats    IndexStats
}

func (d *Device) ensureShards() {
	if d.shards == nil {
		d.shards = make([]bankShard, d.geom.Banks)
	}
}

// mergeShard commits one shard's results into device-wide state. Called in
// bank order on the sweep goroutine; per-bank failing lists are ascending
// and banks own contiguous ascending bit ranges, but fails is sorted later
// anyway, so only the counter and overlay commits rely on the ordering being
// deterministic (they are order-insensitive sums and set inserts). When a
// round-cache entry is under construction the shard's classification is
// folded into it; per-bank bands are bit-sorted and banks are visited in
// ascending-bit order, so the concatenated entry band is globally bit-sorted.
func (d *Device) mergeShard(s *bankShard, fails []uint64, e *roundEntry) []uint64 {
	d.idx = d.idx.Add(s.stats)
	fails = append(fails, s.fails...)
	for _, c := range s.newStuck {
		d.noteStuck(c)
	}
	if e != nil {
		e.skipped += s.stats.Skipped
		e.flips = append(e.flips, s.flips...)
		e.band = append(e.band, s.band...)
	}
	s.cand = s.cand[:0]
	s.band = s.band[:0]
	s.flips = s.flips[:0]
	s.newStuck = s.newStuck[:0]
	s.fails = s.fails[:0]
	s.stats = IndexStats{}
	return fails
}

// classifySharded is classifySeq executed as per-bank shards: bucket the
// candidates (preserving key order within each bank), partition the deviant
// rows, run every bank's classify-and-sample walk concurrently, and merge in
// bank order.
func (d *Device) classifySharded(now, scale, eff float64, k int, collect bool, fails []uint64, e *roundEntry) []uint64 {
	d.ensureShards()
	sh := d.shards
	for _, c := range d.actCells[:k] {
		b := c.bit / d.bankBits
		sh[b].cand = append(sh[b].cand, c)
	}
	// Deviant rows, sorted and partitioned by bank (rows are bank-major).
	var devRows []uint32
	if len(d.rows) > 0 {
		devRows = make([]uint32, 0, len(d.rows))
		for r := range d.rows {
			devRows = append(devRows, r)
		}
		slices.Sort(devRows)
	}
	rpb := uint32(d.geom.RowsPerBank)
	devStart := make([]int, d.geom.Banks+1)
	for b := 1; b <= d.geom.Banks; b++ {
		first := uint32(b) * rpb
		devStart[b] = sort.Search(len(devRows), func(i int) bool { return devRows[i] >= first })
	}
	parallel.ShardLoop(d.geom.Banks, d.sweepWorkers, func(b int) {
		d.runBankShard(&sh[b], b, devRows[devStart[b]:devStart[b+1]], now, scale, eff, collect)
	})
	for b := range sh {
		fails = d.mergeShard(&sh[b], fails, e)
	}
	return fails
}

// runBankShard classifies and samples one bank's candidates. It mirrors
// classifySeq exactly — same classification expressions, same bit-ordered
// merge of the band with the bank's deviant rows — but draws from the bank
// stream and defers every device-wide write to the shard scratch.
func (d *Device) runBankShard(s *bankShard, bank int, devRows []uint32, now, scale, eff float64, collect bool) {
	src := d.bankSrcs[bank]
	haveDeviant := len(d.rows) > 0
	band := s.band[:0]
	for _, c := range s.cand {
		if c.stuck >= 0 {
			continue
		}
		row := d.geom.rowOfBit(c.bit)
		if haveDeviant {
			if _, deviant := d.rows[row]; deviant {
				continue
			}
		}
		if c.vrt != nil {
			band = append(band, c)
			continue
		}
		a := d.geom.AddrOf(c.bit)
		written := uint8(d.bulkData.Word(row, a.Word) >> uint(a.Bit) & 1)
		if written != c.chargedVal {
			s.stats.Skipped++
			continue
		}
		code := d.neighborhoodCodeOf(c)
		mu := c.mu * scale * c.dpdFactor(code)
		sigma := c.sigma * scale
		if eff < mu-zClip*sigma {
			s.stats.Skipped++
			continue
		}
		if eff > mu+zClip*sigma {
			c.stuck = int8(written ^ 1)
			s.newStuck = append(s.newStuck, c)
			s.flips = append(s.flips, flipRec{c, written ^ 1})
			s.stats.Flipped++
			if collect {
				s.fails = append(s.fails, c.bit)
			}
			continue
		}
		band = append(band, c)
	}
	slices.SortFunc(band, func(a, b *weakCell) int { return cmp.Compare(a.bit, b.bit) })
	s.stats.Sampled += uint64(len(band))
	s.band = band

	bi := 0
	sampleBandBelow := func(limit uint64) {
		for bi < len(band) && band[bi].bit < limit {
			c := band[bi]
			bi++
			row := d.geom.rowOfBit(c.bit)
			a := d.geom.AddrOf(c.bit)
			written := uint8(d.bulkData.Word(row, a.Word) >> uint(a.Bit) & 1)
			got, flipped := d.sampleReadBitOn(c, written, now, d.bulkTime, src)
			if flipped {
				s.newStuck = append(s.newStuck, c)
			}
			if collect && got != written {
				s.fails = append(s.fails, c.bit)
			}
		}
	}
	rowBits := uint64(d.geom.RowBits())
	for _, row := range devRows {
		sampleBandBelow(uint64(row) * rowBits)
		rs := d.rows[row]
		data := rs.data
		if data == nil {
			data = d.bulkData
		}
		for _, c := range d.rowCells(row) {
			s.stats.Slowpath++
			a := d.geom.AddrOf(c.bit)
			w := data.Word(row, a.Word)
			if rs.overrides != nil {
				if v, ok := rs.overrides[a.Word]; ok {
					w = v
				}
			}
			written := uint8(w >> uint(a.Bit) & 1)
			got, flipped := d.sampleReadBitOn(c, written, now, rs.restoredAt, src)
			if flipped {
				s.newStuck = append(s.newStuck, c)
			}
			if collect && got != written {
				s.fails = append(s.fails, c.bit)
			}
		}
	}
	sampleBandBelow(math.MaxUint64)
}

// replayBandSharded samples a cached round entry's band as per-bank shards.
// The entry band is globally bit-sorted, so every bank owns one contiguous
// range of it; replay involves no deviant rows (cache hits require none).
func (d *Device) replayBandSharded(e *roundEntry, now float64, collect bool, fails []uint64) []uint64 {
	d.ensureShards()
	sh := d.shards
	bounds := make([]int, d.geom.Banks+1)
	for b := 1; b < d.geom.Banks; b++ {
		first := uint64(b) * d.bankBits
		bounds[b] = sort.Search(len(e.band), func(i int) bool { return e.band[i].bit >= first })
	}
	bounds[d.geom.Banks] = len(e.band)
	parallel.ShardLoop(d.geom.Banks, d.sweepWorkers, func(b int) {
		s := &sh[b]
		src := d.bankSrcs[b]
		for j, c := range e.band[bounds[b]:bounds[b+1]] {
			if c.stuck >= 0 {
				continue
			}
			s.stats.Sampled++
			got, written, flipped := d.sampleBandCached(e, bounds[b]+j, c, now, src)
			if flipped {
				s.newStuck = append(s.newStuck, c)
			}
			if collect && got != written {
				s.fails = append(s.fails, c.bit)
			}
		}
	})
	for b := range sh {
		fails = d.mergeShard(&sh[b], fails, nil)
	}
	return fails
}
