package dram

import "fmt"

// This file implements device savepoints: an in-memory undo point that lets
// one constructed chip be profiled many times from the same starting state,
// the way a tester re-tests one physical chip instead of fetching a new one
// per run.
//
// Profiling never changes a chip's weak-cell population; it changes only a
// small, known set of state: stream positions, VRT cell states, the stuck
// overlay, row deviations, stored content, the round cache and the
// counters. A savepoint copies exactly that set (VRT cells compactly: the
// switch schedule and stream position, never the immutable retention
// parameters), and Rollback writes it back, so a rolled-back device is
// observation-identical to the device at the savepoint — same reads, same
// draws, same counters, same EncodeDelta bytes.
//
// Three kinds of state are reset rather than copied, which is only exact
// because Savepoint refuses a device that holds them:
//
//   - the stuck overlay and row deviations (refused when non-empty);
//   - the round cache and its dirty list (refused when non-empty). Entries
//     built after the savepoint would otherwise survive the rollback and turn
//     full sweeps of the rolled-back run into cache hits, which the
//     dram_incr_* counters observe;
//   - per-cell neighbourhood-code memos, keyed by contentEpoch. Rollback
//     rewinds contentEpoch, so a memo from an epoch past the savepoint could
//     later match a different write; every memo is invalidated instead
//     (they refill deterministically and draw-free).
//
// Rollback refuses a device whose population or injection journals changed
// since the savepoint: injected cells cannot be un-inserted, and journaled
// VRT forcings or DPD reseeds on new cells are divergence a savepoint does
// not record.

// Savepoint is a device's mutable profiling state captured by
// Device.Savepoint, to be restored by Device.Rollback on the same device.
type Savepoint struct {
	weak []*weakCell // the population at the savepoint; identity-checked on rollback

	src [4]uint64
	vrt []vrtSave // one per VRT cell, in weak-slice order

	bulkData       RowData
	bulkTime       float64
	bulkComparable bool
	tempC          float64
	autoRef        float64
	cacheOn        bool
	contentEpoch   uint64

	idx        IndexStats
	incr       IncrStats
	readsDone  uint64
	flipsSoFar uint64

	injected, dpdReseeded, vrtForced int
	dpdSeeds                         []uint64 // current seed of each dpdReseeded cell
}

// vrtSave is the mutable part of one VRT cell's state.
type vrtSave struct {
	nextSwitch float64
	src        [4]uint64
	inLow      bool
}

// Savepoint captures the device's mutable profiling state. It refuses, with
// an error, a device whose state a rollback could not restore exactly: one
// with row deviations, a stuck overlay, or cached round classifications. A
// freshly constructed device is always accepted.
func (d *Device) Savepoint() (*Savepoint, error) {
	switch {
	case len(d.rows) > 0:
		return nil, fmt.Errorf("dram: savepoint: %d deviant rows", len(d.rows))
	case len(d.stuckList) > 0:
		return nil, fmt.Errorf("dram: savepoint: %d cells in the stuck overlay", len(d.stuckList))
	case len(d.rounds) > 0:
		return nil, fmt.Errorf("dram: savepoint: %d cached round classifications", len(d.rounds))
	}
	nVRT := 0
	for _, c := range d.weak {
		if c.vrt != nil {
			nVRT++
		}
	}
	sp := &Savepoint{
		weak:           d.weak,
		src:            d.src.State(),
		vrt:            make([]vrtSave, 0, nVRT),
		bulkData:       d.bulkData,
		bulkTime:       d.bulkTime,
		bulkComparable: d.bulkComparable,
		tempC:          d.tempC,
		autoRef:        d.autoRef,
		cacheOn:        d.cacheOn,
		contentEpoch:   d.contentEpoch,
		idx:            d.idx,
		incr:           d.incr,
		readsDone:      d.readsDone,
		flipsSoFar:     d.flipsSoFar,
		injected:       len(d.injected),
		dpdReseeded:    len(d.dpdReseeded),
		vrtForced:      len(d.vrtForced),
	}
	for _, c := range d.weak {
		if v := c.vrt; v != nil {
			sp.vrt = append(sp.vrt, vrtSave{nextSwitch: v.nextSwitch, src: v.src.State(), inLow: v.inLow})
		}
	}
	for _, c := range d.dpdReseeded {
		sp.dpdSeeds = append(sp.dpdSeeds, c.dpdSeed)
	}
	return sp, nil
}

// Rollback restores the state captured by sp, which must come from this
// device's Savepoint. It drops the stuck overlay, row deviations and the
// round cache (none existed at the savepoint) and invalidates every
// neighbourhood-code memo. It refuses, leaving the device untouched, a
// savepoint from another device or a device whose weak population or
// injection journals changed since the savepoint.
func (d *Device) Rollback(sp *Savepoint) error {
	if sp == nil {
		return fmt.Errorf("dram: rollback: nil savepoint")
	}
	if len(d.weak) != len(sp.weak) || (len(d.weak) > 0 && &d.weak[0] != &sp.weak[0]) {
		return fmt.Errorf("dram: rollback: savepoint is from another device or population")
	}
	if len(d.injected) != sp.injected || len(d.dpdReseeded) != sp.dpdReseeded || len(d.vrtForced) != sp.vrtForced {
		return fmt.Errorf("dram: rollback: injection journals grew since the savepoint (%d injected, %d dpd, %d vrt; want %d, %d, %d)",
			len(d.injected), len(d.dpdReseeded), len(d.vrtForced), sp.injected, sp.dpdReseeded, sp.vrtForced)
	}

	i := 0
	for _, c := range d.weak {
		c.stuck = -1
		c.flags &^= cellStuckListed
		c.nbrEpoch = 0
		if v := c.vrt; v != nil {
			s := &sp.vrt[i]
			i++
			v.inLow, v.nextSwitch = s.inLow, s.nextSwitch
			v.src.SetState(s.src)
		}
	}
	for k, c := range d.dpdReseeded {
		c.dpdSeed = sp.dpdSeeds[k]
	}
	d.stuckList = d.stuckList[:0]
	if len(d.rows) > 0 {
		d.rows = make(map[uint32]*rowState)
	}
	d.invalidateRounds()

	d.src.SetState(sp.src)
	d.bulkData = sp.bulkData
	d.bulkTime = sp.bulkTime
	d.bulkComparable = sp.bulkComparable
	d.tempC = sp.tempC
	d.autoRef = sp.autoRef
	d.cacheOn = sp.cacheOn
	d.contentEpoch = sp.contentEpoch
	d.idx = sp.idx
	d.incr = sp.incr
	d.readsDone = sp.readsDone
	d.flipsSoFar = sp.flipsSoFar
	return nil
}
