package dram

// ChipRef is the compact, copyable handle fleet-scale campaigns hold instead
// of a materialized *Device. A device is a pure function of its validated
// Config — the rng streams (rng.New/Derive/Split) guarantee that NewDevice
// with the same (seed, vendor, geometry, knobs) redraws a byte-identical
// weak-cell population — so a fleet of a million chips needs only a million
// ChipRefs (a few hundred bytes each) plus the handful of devices whose
// shard is currently active. ChipRefs never go stale and never need
// invalidation: they carry no derived state, only the construction inputs,
// and those are immutable for the life of a campaign.
//
// A ChipRef is not a cache key into shared storage; Materialize builds a
// brand-new device every call. Divergence accumulated by a previous
// materialization (injected cells, stuck overlay, read history) is the delta
// codec's job: EncodeDelta captures it as O(deviations) bytes, and
// RestoreDelta replays it onto a fresh Materialize result.
type ChipRef struct {
	cfg Config
}

// NewChipRef validates cfg eagerly and wraps it. Validation at ref-creation
// time (rather than materialization time) means a fleet spec with a bad
// geometry or vendor fails at submission, not mid-campaign inside a shard.
func NewChipRef(cfg Config) (ChipRef, error) {
	if err := cfg.validate(); err != nil {
		return ChipRef{}, err
	}
	return ChipRef{cfg: cfg}, nil
}

// Materialize builds the full device from the ref. The result is
// byte-identical across calls: same population, same stream positions.
func (r ChipRef) Materialize() (*Device, error) {
	return NewDevice(r.cfg)
}
