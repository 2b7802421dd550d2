package testprog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"

	"reaper/internal/dram"
)

// Bounds enforced by Validate on the fleet spec, so a malformed program
// cannot request an absurd simulation. The fleet ceiling assumes lazy
// shard execution (stages accept shard_size): chips outside the active
// shard cost a few words each, so million-chip programs are admissible —
// the bound only rejects obvious typos, not large campaigns.
const (
	maxFleetChips = 1 << 20
	minChipBits   = 1 << 20 // 1 Mbit
	maxChipBits   = 1 << 32 // 4 Gbit
	maxWeakScale  = 1000
	maxNameLen    = 128

	// maxChipWeakCells bounds one chip's expected weak population (its
	// retention tail plus its latent VRT reservoir). A weak cell costs at
	// least 88 bytes (the 64-byte cell, its slot in the bit-ordered
	// population and its two activation-index slots), so the cap holds a
	// chip to about 370 MB. It admits a 1 Gbit chip of every vendor at the
	// default weak_scale of 20 and a 4 Gbit chip of every vendor at
	// weak_scale 1; at 4 Gbit and weak_scale 1000 a vendor C chip would
	// expect 4.3e8 cells.
	maxChipWeakCells = 1 << 22
)

// StageTypes returns every registered stage-type token, sorted.
func StageTypes() []string {
	out := make([]string, 0, len(stageCodecs))
	for token := range stageCodecs {
		out = append(out, token)
	}
	sort.Strings(out)
	return out
}

// programWire mirrors Program with raw stages, so Load can dispatch each
// stage to its concrete type and strict-decode it individually.
type programWire struct {
	Version int               `json:"version"`
	Name    string            `json:"name,omitempty"`
	Seed    uint64            `json:"seed"`
	Fleet   Fleet             `json:"fleet"`
	Stages  []json.RawMessage `json:"stages"`
	Output  Output            `json:"output"`
}

// Load parses and validates a JSON test program. It is strict: unknown
// top-level fields, unknown fleet/output fields, unknown stage types, and
// unknown fields inside any stage are all errors, as is trailing content
// after the program object. The returned program is validated and
// normalized (every stage's "type" field is filled).
func Load(data []byte) (*Program, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w programWire
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("testprog: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("testprog: trailing content after program object")
	}
	p := &Program{
		Version: w.Version,
		Name:    w.Name,
		Seed:    w.Seed,
		Fleet:   w.Fleet,
		Output:  w.Output,
	}
	for i, raw := range w.Stages {
		s, err := decodeStage(raw, i)
		if err != nil {
			return nil, err
		}
		p.Stages = append(p.Stages, s)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// decodeStage strict-decodes one raw stage: probe the "type" token, look
// up the concrete stage type in the closed registry, and reject unknown
// fields against that type.
func decodeStage(raw json.RawMessage, i int) (Stage, error) {
	var probe struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return nil, fmt.Errorf("testprog: stage %d: %w", i, err)
	}
	if probe.Type == "" {
		return nil, fmt.Errorf("testprog: stage %d: missing \"type\" field", i)
	}
	mk, ok := stageCodecs[probe.Type]
	if !ok {
		return nil, fmt.Errorf("testprog: stage %d: unknown stage type %q (valid: %s)",
			i, probe.Type, strings.Join(StageTypes(), ", "))
	}
	s := mk()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("testprog: stage %d (%s): %w", i, probe.Type, err)
	}
	return s, nil
}

// fillType normalizes a stage's "type" JSON field to its token. All stage
// types are pointer structs with a Type string field.
func fillType(s Stage) {
	reflect.ValueOf(s).Elem().FieldByName("Type").SetString(s.StageType())
}

// Validate checks the whole program — version, name, fleet bounds, stage
// family consistency, and every stage's own constraints — and normalizes
// it (fills each stage's "type" field). Load calls it; programs
// constructed in Go should call it (or Canonical, which does) before Run.
func (p *Program) Validate() error {
	if p.Version != Version {
		return fmt.Errorf("testprog: unsupported program version %d (this build supports %d)",
			p.Version, Version)
	}
	if len(p.Name) > maxNameLen {
		return fmt.Errorf("testprog: name longer than %d bytes", maxNameLen)
	}
	for _, r := range p.Name {
		if r < 0x20 || r == 0x7f {
			return fmt.Errorf("testprog: name contains control character %q", r)
		}
	}
	if err := p.Fleet.validate(); err != nil {
		return err
	}
	if len(p.Stages) == 0 {
		return fmt.Errorf("testprog: program has no stages")
	}
	campaigns := 0
	for _, s := range p.Stages {
		if campaignStage(s.StageType()) {
			campaigns++
		}
	}
	if campaigns != 0 && campaigns != len(p.Stages) {
		return fmt.Errorf("testprog: device stages and campaign stages cannot mix in one program")
	}
	for i, s := range p.Stages {
		if s == nil {
			return fmt.Errorf("testprog: stage %d is nil", i)
		}
		declared := reflect.ValueOf(s).Elem().FieldByName("Type").String()
		if declared != "" && declared != s.StageType() {
			return fmt.Errorf("testprog: stage %d: type field %q does not match stage type %q",
				i, declared, s.StageType())
		}
		if err := s.validate(p, i); err != nil {
			return fmt.Errorf("testprog: %w", err)
		}
		fillType(s)
	}
	if p.Output.FailingBits < 0 {
		return fmt.Errorf("testprog: output.failing_bits must be non-negative")
	}
	if p.Output.IncludeTrace && p.Kind() == KindCampaign {
		return fmt.Errorf("testprog: output.include_trace is only supported for device programs")
	}
	return nil
}

func (f Fleet) validate() error {
	if f.Chips < 0 || f.Chips > maxFleetChips {
		return fmt.Errorf("testprog: fleet.chips %d out of [0, %d]", f.Chips, maxFleetChips)
	}
	if f.Bits != 0 && (f.Bits < minChipBits || f.Bits > maxChipBits) {
		return fmt.Errorf("testprog: fleet.bits %d out of [%d, %d] (or 0 for the default)",
			f.Bits, int64(minChipBits), int64(maxChipBits))
	}
	if f.WeakScale < 0 || f.WeakScale > maxWeakScale {
		return fmt.Errorf("testprog: fleet.weak_scale %v out of [0, %d]", f.WeakScale, maxWeakScale)
	}
	v, err := f.vendor()
	if err != nil {
		return err
	}
	if err := f.checkChipCells(v); err != nil {
		return fmt.Errorf("testprog: %w", err)
	}
	return nil
}

// checkChipCells refuses a fleet whose chips of vendor v would expect more
// than maxChipWeakCells weak cells, with bits and weak_scale resolved as
// the stages resolve them. The expectation is the one construction sizes
// its tables with (dram.ExpectedWeakCells).
func (f Fleet) checkChipCells(v dram.VendorParams) error {
	spec := f.chipSpec(0)
	spec.Vendor = v
	cfg := spec.Config()
	base, reservoir := dram.ExpectedWeakCells(cfg)
	if cells := base + reservoir; !(cells <= maxChipWeakCells) {
		return fmt.Errorf("fleet: a %d-bit vendor %s chip at weak_scale %v expects %.3g weak cells, over the %d one chip may hold",
			cfg.Geometry.TotalBits(), v.Name, cfg.WeakScale, cells, maxChipWeakCells)
	}
	return nil
}
