package mitigate

import (
	"fmt"
	"sort"

	"reaper/internal/core"
	"reaper/internal/dram"
)

// RAIDR implements retention-aware intelligent DRAM refresh (Liu et al.,
// ISCA'12; the paper's Section 7.1.2): rows are grouped into bins by the
// retention time of their weakest cell, and each bin is refreshed at its own
// interval instead of refreshing everything at the worst-case rate. REAPER
// supplies the per-interval failing-cell profiles the binning is built from.
type RAIDR struct {
	geom dram.Geometry
	// bins holds the candidate refresh intervals in ascending order;
	// bins[0] is the safe default every unprofiled row gets.
	bins []float64
	// rowBin maps every global row to an index into bins.
	rowBin []int
}

// NewRAIDR builds a binning structure. bins must be ascending positive
// refresh intervals (seconds); bins[0] is the default (safe) interval.
func NewRAIDR(geom dram.Geometry, bins []float64) (*RAIDR, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if len(bins) < 2 {
		return nil, fmt.Errorf("mitigate: RAIDR needs at least 2 bins")
	}
	if !sort.Float64sAreSorted(bins) {
		return nil, fmt.Errorf("mitigate: RAIDR bins must be ascending: %v", bins)
	}
	if bins[0] <= 0 {
		return nil, fmt.Errorf("mitigate: RAIDR bins must be positive")
	}
	r := &RAIDR{
		geom:   geom,
		bins:   append([]float64(nil), bins...),
		rowBin: make([]int, geom.TotalRows()),
	}
	return r, nil
}

// Assign bins every row using per-interval failure profiles: profileAt(t)
// must return the set of cells that fail when refreshed every t seconds
// (typically a reach-profiling result at target interval t). A row is placed
// in the longest bin at which none of its cells fail; rows with failures
// even at bins[1] stay at the default bins[0].
func (r *RAIDR) Assign(profileAt func(interval float64) *core.FailureSet) error {
	if profileAt == nil {
		return fmt.Errorf("mitigate: nil profile source")
	}
	// Mark, for each row, the failing bins from longest down.
	rowFailsAt := make([][]bool, r.geom.TotalRows())
	for bi := 1; bi < len(r.bins); bi++ {
		prof := profileAt(r.bins[bi])
		if prof == nil {
			return fmt.Errorf("mitigate: nil profile for bin %v", r.bins[bi])
		}
		for _, bit := range prof.Sorted() {
			a := r.geom.AddrOf(bit)
			gr := r.geom.GlobalRow(a.Bank, a.Row)
			if rowFailsAt[gr] == nil {
				rowFailsAt[gr] = make([]bool, len(r.bins))
			}
			rowFailsAt[gr][bi] = true
		}
	}
	for gr := range r.rowBin {
		fails := rowFailsAt[gr]
		best := len(r.bins) - 1
		if fails != nil {
			// Failing at bin i disqualifies bins >= i (longer intervals
			// are supersets of failures).
			best = len(r.bins) - 1
			for bi := 1; bi < len(r.bins); bi++ {
				if fails[bi] {
					best = bi - 1
					break
				}
			}
		}
		r.rowBin[gr] = best
	}
	return nil
}

// BinCounts returns how many rows sit in each bin.
func (r *RAIDR) BinCounts() []int {
	counts := make([]int, len(r.bins))
	for _, b := range r.rowBin {
		counts[b]++
	}
	return counts
}

// RefreshOpsPerSecond returns the row-refresh rate the binning implies.
func (r *RAIDR) RefreshOpsPerSecond() float64 {
	ops := 0.0
	for _, b := range r.rowBin {
		ops += 1 / r.bins[b]
	}
	return ops
}

// BaselineOpsPerSecond returns the row-refresh rate when every row uses the
// given single interval.
func (r *RAIDR) BaselineOpsPerSecond(interval float64) float64 {
	return float64(r.geom.TotalRows()) / interval
}

// Savings returns the fraction of refresh operations eliminated relative to
// refreshing every row at baselineInterval.
func (r *RAIDR) Savings(baselineInterval float64) float64 {
	base := r.BaselineOpsPerSecond(baselineInterval)
	if base <= 0 {
		return 0
	}
	s := 1 - r.RefreshOpsPerSecond()/base
	if s < 0 {
		return 0
	}
	return s
}
