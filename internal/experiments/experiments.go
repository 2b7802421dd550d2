// Package experiments implements one reproducible harness per table and
// figure of the paper's evaluation, plus the studies that go beyond it
// (ablations, the UBER independence check, passive scrubbing, the
// classification fallacy) and the fault-injection soak. Each Fig*/Table*
// function builds the workloads, runs the sweep on the simulated substrate,
// and returns a structured result that renders as the same rows/series the
// paper reports. Entries (registry.go) wires each result exactly once, at
// one configuration: cmd/reproduce prints any entry, and the repository
// benchmark checks every entry's seed-1 output against a golden file.
//
// Scale note: the characterization experiments run on scale-model chips
// (tens of Mbit with amplified weak-cell density) so that a full sweep
// finishes in seconds; all reported rates are normalized back through the
// amplification factor. EXPERIMENTS.md records, for every experiment, the
// paper's numbers next to the numbers these harnesses produce.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"reaper/internal/dram"
	"reaper/internal/memctrl"
	"reaper/internal/thermal"
)

// ChipSpec configures the scale-model chips experiments run on.
type ChipSpec struct {
	// Bits is the chip capacity; WeakScale amplifies weak-cell density.
	Bits      int64
	WeakScale float64
	Vendor    dram.VendorParams
	Seed      uint64
	// Chamber couples the station to the simulated thermal chamber.
	Chamber bool
	// DisableVRT/DisableDPD build ablated chips.
	DisableVRT bool
	DisableDPD bool
}

// DefaultChipSpec is the standard scale-model chip: 64 Mbit with 20x
// weak-cell amplification, vendor B (the paper's representative vendor).
func DefaultChipSpec(seed uint64) ChipSpec {
	return ChipSpec{
		Bits:      64 << 20,
		WeakScale: 20,
		Vendor:    dram.VendorB(),
		Seed:      seed,
	}
}

// withDefaults resolves the zero-value conveniences to the standard
// scale-model chip parameters.
func (c ChipSpec) withDefaults() ChipSpec {
	if c.Bits == 0 {
		c.Bits = 64 << 20
	}
	if c.WeakScale == 0 {
		c.WeakScale = 20
	}
	if c.Vendor.Name == "" {
		c.Vendor = dram.VendorB()
	}
	return c
}

// Ref returns the compact seed-derived handle for this spec's device. The
// ref — not a live *dram.Device — is the unit of fleet state: a sweep over
// a million chips holds a million refs (a few words each) and materializes
// only the shard currently being swept.
func (c ChipSpec) Ref() (dram.ChipRef, error) {
	return dram.NewChipRef(c.Config())
}

// Config returns the device configuration this spec builds, with the
// zero-value conveniences resolved.
func (c ChipSpec) Config() dram.Config {
	c = c.withDefaults()
	return dram.Config{
		Geometry:   dram.GeometryForBits(c.Bits),
		Vendor:     c.Vendor,
		Seed:       c.Seed,
		WeakScale:  c.WeakScale,
		DisableVRT: c.DisableVRT,
		DisableDPD: c.DisableDPD,
	}
}

// NewStation builds the station for a spec by materializing its ref.
func (c ChipSpec) NewStation() (*memctrl.Station, error) {
	c = c.withDefaults()
	ref, err := c.Ref()
	if err != nil {
		return nil, err
	}
	dev, err := ref.Materialize()
	if err != nil {
		return nil, err
	}
	var chamber *thermal.Chamber
	if c.Chamber {
		chamber = thermal.NewChamber(c.Seed ^ 0x7EA8)
		chamber.SettleTo(dram.RefTempC, 0.25, 7200)
	}
	return memctrl.NewStation(chamber, dev)
}

// EffectiveBER converts a raw failing-cell count on a scale-model chip back
// to the bit error rate of an unamplified device.
func (c ChipSpec) EffectiveBER(cells int) float64 {
	scale := c.WeakScale
	if scale == 0 {
		scale = 1
	}
	return float64(cells) / (float64(c.Bits) * scale)
}

// Table is a small text-table builder shared by the experiment harnesses.
type Table struct {
	Title   string
	Header  []string
	Rows    [][]string
	Caption string
}

// AddRow appends formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Caption != "" {
		fmt.Fprintf(w, "  -- %s\n", t.Caption)
	}
	fmt.Fprintln(w)
}

// F formats a float compactly for table cells.
func F(v float64) string { return fmt.Sprintf("%.4g", v) }

// Pct formats a fraction as a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// Ms formats seconds as milliseconds.
func Ms(sec float64) string { return fmt.Sprintf("%.0fms", sec*1000) }
