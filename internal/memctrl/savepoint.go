package memctrl

import (
	"fmt"

	"reaper/internal/dram"
)

// StationSavepoint is a station's state captured by Station.Savepoint: the
// device savepoint plus the clock, the refresh flag and the time accounting.
type StationSavepoint struct {
	dev     *dram.Savepoint
	clock   Clock
	refresh bool
	stats   Stats
}

// Savepoint captures the station's state so Rollback can return it to this
// exact point, letting one station profile many runs from the same start.
// It refuses a station with a thermal chamber (the chamber's own dynamics
// are not captured) or an attached command trace (rolling back would leave
// commands from the future in it), and any device dram.Device.Savepoint
// refuses.
func (s *Station) Savepoint() (*StationSavepoint, error) {
	if s.chamber != nil {
		return nil, fmt.Errorf("memctrl: savepoint: station has a thermal chamber")
	}
	if s.trace != nil {
		return nil, fmt.Errorf("memctrl: savepoint: station has a command trace attached")
	}
	dsp, err := s.dev.Savepoint()
	if err != nil {
		return nil, err
	}
	return &StationSavepoint{dev: dsp, clock: s.clock, refresh: s.refresh, stats: s.stats}, nil
}

// Rollback returns the station to the state captured by sp. It refuses,
// with an error, whatever dram.Device.Rollback refuses, and a station that
// has had a trace attached since the savepoint.
func (s *Station) Rollback(sp *StationSavepoint) error {
	if sp == nil {
		return fmt.Errorf("memctrl: rollback: nil savepoint")
	}
	if s.trace != nil {
		return fmt.Errorf("memctrl: rollback: station has a command trace attached")
	}
	if err := s.dev.Rollback(sp.dev); err != nil {
		return err
	}
	s.clock = sp.clock
	s.refresh = sp.refresh
	s.stats = sp.stats
	return nil
}
