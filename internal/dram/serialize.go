package dram

import (
	"fmt"
	"sort"

	"reaper/internal/checkpoint"
	"reaper/internal/rng"
)

// This file holds the device codec's shared helpers and the mutable tail
// that EncodeDelta (delta.go) writes after its divergence records: content
// and clocks, row deviations, the sampling stream position, the sparse-
// index and round-cache counters, and the incremental round cache itself.
// With the divergence replayed and the tail restored, a freshly constructed
// device of the same Config behaves (reads, draws, counters, cache hits)
// bit-identically to the original.
//
// The round cache is serialized in full rather than dropped because its
// state is observable: dram_incr_* telemetry counters distinguish fast from
// full sweeps, so a resume that silently lost the cache would report
// different counter values than an uninterrupted run.
//
// Per-cell scratch that is a pure function of serialized state is NOT
// serialized: neighbourhood-code caches restore as invalid (nbrEpoch 0 can
// never equal the restored contentEpoch, which starts at 1) and round-entry
// draw-probability memos restore empty — both refill deterministically
// without consuming rng draws, so dropping them is observation-equivalent.

// sanity ceilings for decoded lengths; beyond these the blob is corrupt.
const (
	maxRestoreCells   = 1 << 28
	maxRestoreRows    = 1 << 28
	maxRestoreEntries = 4 * maxRoundEntries
)

// rowData content descriptor kinds on the wire.
const (
	contentNil   = 0 // rowState.data nil (bulk content applies)
	contentZero  = 1 // zeroData: power-up state
	contentSlice = 2 // sliceRowData: explicitly written words
	contentNamed = 3 // named pattern, reconstructed via the resolver
)

// Namer is the optional naming facet of a RowData descriptor. Pattern
// descriptors (internal/patterns) satisfy it; their name is what the
// checkpoint stores and the resolver turns back into a ==-identical value.
type Namer interface {
	Name() string
}

// encodeRowData writes one content descriptor.
func encodeRowData(e *checkpoint.Encoder, data RowData) error {
	switch v := data.(type) {
	case nil:
		e.Byte(contentNil)
	case zeroData:
		e.Byte(contentZero)
	case sliceRowData:
		e.Byte(contentSlice)
		e.Len(len(v))
		for _, w := range v {
			e.U64(w)
		}
	default:
		n, ok := data.(Namer)
		if !ok {
			return fmt.Errorf("dram: content descriptor %T is neither named nor serializable", data)
		}
		e.Byte(contentNamed)
		e.Str(n.Name())
	}
	return nil
}

// decodeRowData reads one content descriptor; named patterns go through the
// caller's resolver (typically patterns.Parse) so the reconstructed value is
// == to the original. Explicit words must number exactly wordsPerRow, since
// every row read indexes them by word.
func decodeRowData(d *checkpoint.Decoder, resolve func(string) (RowData, error), wordsPerRow int) (RowData, error) {
	switch kind := d.Byte(); kind {
	case contentNil:
		return nil, nil
	case contentZero:
		return zeroData{}, nil
	case contentSlice:
		n := d.Len(wordsPerRow)
		if d.Err() == nil && n != wordsPerRow {
			return nil, fmt.Errorf("dram: explicit row content has %d words, rows have %d", n, wordsPerRow)
		}
		words := make(sliceRowData, n)
		for i := range words {
			words[i] = d.U64()
		}
		return words, nil
	case contentNamed:
		name := d.Str()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if resolve == nil {
			return nil, fmt.Errorf("dram: named content %q but no resolver provided", name)
		}
		data, err := resolve(name)
		if err != nil {
			return nil, fmt.Errorf("dram: resolving content: %w", err)
		}
		return data, nil
	default:
		if err := d.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("dram: unknown content descriptor kind %d", kind)
	}
}

func encodeSrcState(e *checkpoint.Encoder, s *rng.Source) {
	st := s.State()
	e.U64(st[0])
	e.U64(st[1])
	e.U64(st[2])
	e.U64(st[3])
}

func decodeSrcState(d *checkpoint.Decoder) [4]uint64 {
	return [4]uint64{d.U64(), d.U64(), d.U64(), d.U64()}
}

// cellIndexOf returns c's index in the bit-sorted weak slice.
func (d *Device) cellIndexOf(c *weakCell) int {
	return sort.Search(len(d.weak), func(i int) bool { return d.weak[i].bit >= c.bit })
}

// encodeDeviceTail serializes the population-independent remainder of the
// device state — content and clocks, row deviations, stream positions,
// counters, and the incremental round cache. Cells are referenced by index
// into the bit-sorted weak slice, which RestoreDelta reconstructs before it
// decodes the tail.
func (d *Device) encodeDeviceTail(e *checkpoint.Encoder) error {
	// Content and clocks.
	if err := encodeRowData(e, d.bulkData); err != nil {
		return err
	}
	e.F64(d.bulkTime)
	e.U64(d.contentEpoch)
	e.F64(d.tempC)
	e.F64(d.autoRef)
	e.U64(d.readsDone)
	e.U64(d.flipsSoFar)

	// Row deviations, sorted by global row.
	rows := make([]uint32, 0, len(d.rows))
	for r := range d.rows {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
	e.Len(len(rows))
	for _, r := range rows {
		rs := d.rows[r]
		e.U64(uint64(r))
		e.F64(rs.restoredAt)
		if err := encodeRowData(e, rs.data); err != nil {
			return err
		}
		words := make([]int, 0, len(rs.overrides))
		for w := range rs.overrides {
			words = append(words, w)
		}
		sort.Ints(words)
		e.Len(len(words))
		for _, w := range words {
			e.Int(w)
			e.U64(rs.overrides[w])
		}
	}

	// Stream position.
	encodeSrcState(e, d.src)

	// Counters.
	e.U64(d.idx.Skipped)
	e.U64(d.idx.Flipped)
	e.U64(d.idx.Sampled)
	e.U64(d.idx.Slowpath)
	e.U64(d.incr.FastSweeps)
	e.U64(d.incr.FullSweeps)
	e.U64(d.incr.ReusedCells)
	e.U64(d.incr.DirtyCells)

	// Incremental round cache: entries sorted by key signature so the
	// encoding is deterministic; cells referenced by index into the
	// bit-sorted weak slice. Draw-probability memos are not stored (they
	// refill deterministically and draw-free on first replay).
	e.Bool(d.cacheOn)
	type keyedEntry struct {
		name    string
		key     roundKey
		dataNil bool
	}
	keys := make([]keyedEntry, 0, len(d.rounds))
	for k := range d.rounds {
		ke := keyedEntry{key: k}
		if k.data == nil {
			ke.dataNil = true
		} else if n, ok := k.data.(Namer); ok {
			ke.name = n.Name()
		} else if _, ok := k.data.(zeroData); !ok {
			// Unidentifiable key content cannot round-trip; entries are an
			// optimization, so drop just this entry rather than fail.
			continue
		}
		keys = append(keys, ke)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.name != b.name {
			return a.name < b.name
		}
		if a.key.tempC != b.key.tempC {
			return a.key.tempC < b.key.tempC
		}
		if a.key.elapsed != b.key.elapsed {
			return a.key.elapsed < b.key.elapsed
		}
		return a.key.autoRef < b.key.autoRef
	})
	e.Len(len(keys))
	for _, ke := range keys {
		if err := encodeRowData(e, ke.key.data); err != nil {
			return err
		}
		e.F64(ke.key.tempC)
		e.F64(ke.key.elapsed)
		e.F64(ke.key.autoRef)
		ent := d.rounds[ke.key]
		e.U64(ent.skipped)
		e.Int(ent.dirtyLen)
		e.Len(len(ent.flips))
		for _, f := range ent.flips {
			e.Int(d.cellIndexOf(f.c))
			e.Byte(f.wrong)
		}
		e.Len(len(ent.band))
		for _, c := range ent.band {
			e.Int(d.cellIndexOf(c))
		}
	}
	e.Len(len(d.dirtyCells))
	for _, c := range d.dirtyCells {
		e.Int(d.cellIndexOf(c))
	}
	return nil
}

// decodeCellAt reads a weak-slice index and resolves it to the cell.
func (d *Device) decodeCellAt(dec *checkpoint.Decoder, label string) (*weakCell, error) {
	i := dec.Int()
	if dec.Err() != nil {
		return nil, dec.Err()
	}
	if i < 0 || i >= len(d.weak) {
		return nil, fmt.Errorf("dram: restore: %s cell index %d out of range", label, i)
	}
	return d.weak[i], nil
}

// restoreDeviceTail decodes the encodeDeviceTail region into d, whose weak
// population must already be final (fresh construction plus delta replay),
// then rebuilds the activation index and resets the run-time scratch. Every
// row, word and dirty-list position the blob names is range-checked, so a
// corrupt blob fails here instead of panicking a later sweep.
func (d *Device) restoreDeviceTail(dec *checkpoint.Decoder, resolve func(string) (RowData, error)) error {
	wpr := d.geom.WordsPerRow
	bulk, err := decodeRowData(dec, resolve, wpr)
	if err != nil {
		return err
	}
	if bulk == nil {
		return fmt.Errorf("dram: restore: nil bulk content")
	}
	d.bulkData = bulk
	d.bulkComparable = comparableRowData(bulk)
	d.bulkTime = dec.F64()
	d.contentEpoch = dec.U64()
	d.tempC = dec.F64()
	d.autoRef = dec.F64()
	d.readsDone = dec.U64()
	d.flipsSoFar = dec.U64()

	nr := dec.Len(maxRestoreRows)
	d.rows = make(map[uint32]*rowState, nr)
	for i := 0; i < nr; i++ {
		row := dec.U64()
		if dec.Err() == nil && row >= uint64(d.geom.TotalRows()) {
			return fmt.Errorf("dram: restore: deviant row %d out of range", row)
		}
		rs := &rowState{restoredAt: dec.F64()}
		rs.data, err = decodeRowData(dec, resolve, wpr)
		if err != nil {
			return err
		}
		no := dec.Len(wpr)
		if no > 0 {
			rs.overrides = make(map[int]uint64, no)
			for j := 0; j < no; j++ {
				w := dec.Int()
				if dec.Err() == nil && (w < 0 || w >= wpr) {
					return fmt.Errorf("dram: restore: row %d override word %d out of range", row, w)
				}
				rs.overrides[w] = dec.U64()
			}
		}
		if dec.Err() != nil {
			return dec.Err()
		}
		d.rows[uint32(row)] = rs
	}

	d.src.SetState(decodeSrcState(dec))

	d.idx.Skipped = dec.U64()
	d.idx.Flipped = dec.U64()
	d.idx.Sampled = dec.U64()
	d.idx.Slowpath = dec.U64()
	d.incr.FastSweeps = dec.U64()
	d.incr.FullSweeps = dec.U64()
	d.incr.ReusedCells = dec.U64()
	d.incr.DirtyCells = dec.U64()

	d.cacheOn = dec.Bool()
	ne := dec.Len(maxRestoreEntries)
	d.rounds = nil
	maxDirtyLen := 0
	if ne > 0 {
		d.rounds = make(map[roundKey]*roundEntry, ne)
	}
	for i := 0; i < ne; i++ {
		data, err := decodeRowData(dec, resolve, wpr)
		if err != nil {
			return err
		}
		if data != nil && !comparableRowData(data) {
			// The encoder only writes keys it can identify; anything else
			// would panic as a map key.
			return fmt.Errorf("dram: restore: round-cache key content %T is not comparable", data)
		}
		key := roundKey{data: data, tempC: dec.F64(), elapsed: dec.F64(), autoRef: dec.F64()}
		ent := &roundEntry{skipped: dec.U64(), dirtyLen: dec.Int()}
		if dec.Err() == nil && ent.dirtyLen < 0 {
			return fmt.Errorf("dram: restore: round-cache entry folded %d dirty cells", ent.dirtyLen)
		}
		maxDirtyLen = max(maxDirtyLen, ent.dirtyLen)
		nf := dec.Len(maxRestoreCells)
		ent.flips = make([]flipRec, 0, nf)
		for j := 0; j < nf; j++ {
			c, err := d.decodeCellAt(dec, "flip")
			if err != nil {
				return err
			}
			ent.flips = append(ent.flips, flipRec{c: c, wrong: dec.Byte()})
		}
		nbd := dec.Len(maxRestoreCells)
		ent.band = make([]*weakCell, 0, nbd)
		for j := 0; j < nbd; j++ {
			c, err := d.decodeCellAt(dec, "band")
			if err != nil {
				return err
			}
			ent.band = append(ent.band, c)
		}
		ent.probs = make([]bandProb, len(ent.band))
		d.rounds[key] = ent
	}
	nd := dec.Len(maxDirtyCells)
	d.dirtyCells = nil
	for i := 0; i < nd; i++ {
		c, err := d.decodeCellAt(dec, "dirty")
		if err != nil {
			return err
		}
		d.dirtyCells = append(d.dirtyCells, c)
	}
	if err := dec.Err(); err != nil {
		return err
	}
	// Each entry has folded in a prefix of the dirty list, which
	// refreshRound slices from there.
	if maxDirtyLen > len(d.dirtyCells) {
		return fmt.Errorf("dram: restore: a round-cache entry folded %d dirty cells of %d", maxDirtyLen, len(d.dirtyCells))
	}

	d.rebuildIndex()
	d.band = d.band[:0]
	d.failScratch = d.failScratch[:0]
	return nil
}
