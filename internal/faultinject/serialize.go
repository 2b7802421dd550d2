package faultinject

import (
	"fmt"
	"sort"

	"reaper/internal/checkpoint"
	"reaper/internal/thermal"
)

// Checkpoint surface of the injector: every channel's stream position and
// next fire time (which can be +Inf — the binary codec carries it as a bit
// pattern), the active thermal excursion, and the fault log. The scenario
// and target interval are construction parameters covered by the campaign
// identity hash; the seed is written as an in-band guard.

const (
	maxRestoreEvents = 1 << 24
	maxRestoreCounts = 1 << 16
)

// EncodeState serializes the injector's mutable state.
func (inj *Injector) EncodeState(e *checkpoint.Encoder) {
	e.Section("faultinject.injector")
	e.U64(inj.sc.Seed)
	for _, s := range inj.streams {
		st := s.State()
		e.U64(st[0])
		e.U64(st[1])
		e.U64(st[2])
		e.U64(st[3])
	}
	for _, t := range inj.nextAt {
		e.F64(t)
	}
	e.F64(inj.baseAmbient)
	if inj.excursion == nil {
		e.Bool(false)
	} else {
		e.Bool(true)
		e.F64(inj.excursion.StartSeconds)
		e.F64(inj.excursion.PeakDeltaC)
		e.F64(inj.excursion.TauSeconds)
	}
	e.F64(inj.excNextAt)
	e.Len(len(inj.events))
	for _, ev := range inj.events {
		e.F64(ev.ClockHours)
		e.Str(ev.Kind)
		e.Str(ev.Detail)
		e.Int(ev.Cells)
	}
	kinds := make([]string, 0, len(inj.counts))
	for k := range inj.counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	e.Len(len(kinds))
	for _, k := range kinds {
		e.Str(k)
		e.Int(inj.counts[k])
	}
}

// RestoreState loads state serialized by EncodeState into a freshly
// constructed injector for the same scenario (New draws initial fire times;
// this overwrites both the stream positions and the schedule).
func (inj *Injector) RestoreState(d *checkpoint.Decoder) error {
	d.Section("faultinject.injector")
	if seed := d.U64(); d.Err() == nil && seed != inj.sc.Seed {
		return fmt.Errorf("faultinject: restore: blob seed %#x, injector seed %#x", seed, inj.sc.Seed)
	}
	for _, s := range inj.streams {
		s.SetState([4]uint64{d.U64(), d.U64(), d.U64(), d.U64()})
	}
	for ch := range inj.nextAt {
		inj.nextAt[ch] = d.F64()
	}
	inj.baseAmbient = d.F64()
	inj.excursion = nil
	if d.Bool() {
		inj.excursion = &thermal.Excursion{
			StartSeconds: d.F64(),
			PeakDeltaC:   d.F64(),
			TauSeconds:   d.F64(),
		}
	}
	inj.excNextAt = d.F64()
	n := d.Len(maxRestoreEvents)
	if d.Err() != nil {
		return d.Err()
	}
	if inj.excursion != nil {
		if err := inj.excursion.Validate(); err != nil {
			return fmt.Errorf("faultinject: restore: %w", err)
		}
	}
	inj.events = make([]Event, 0, n)
	for i := 0; i < n; i++ {
		inj.events = append(inj.events, Event{
			ClockHours: d.F64(),
			Kind:       d.Str(),
			Detail:     d.Str(),
			Cells:      d.Int(),
		})
	}
	nc := d.Len(maxRestoreCounts)
	if d.Err() != nil {
		return d.Err()
	}
	inj.counts = make(map[string]int, nc)
	for i := 0; i < nc; i++ {
		k := d.Str()
		inj.counts[k] = d.Int()
	}
	return d.Err()
}
