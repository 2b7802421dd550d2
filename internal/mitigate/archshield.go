// Package mitigate implements the retention failure mitigation mechanisms
// the paper combines REAPER with (Section 7.1): ArchShield-style word
// remapping backed by a reserved DRAM segment and RAIDR-style multi-rate
// refresh binning.
//
// Each mechanism consumes the failing-cell set a profiler produces and makes
// extended-refresh-interval operation safe for the cells it covers. Their
// capacity and overhead expose the cost of false positives: every spurious
// cell in the profile occupies mitigation resources.
package mitigate

import (
	"cmp"
	"fmt"
	"slices"

	"reaper/internal/core"
	"reaper/internal/dram"
	"reaper/internal/memctrl"
)

// WordAddr identifies one 64-bit word in a device.
type WordAddr struct {
	Bank, Row, Word int
}

// Compare orders word addresses by bank, then row, then word, the order of
// every sorted word list; slices.SortFunc takes WordAddr.Compare directly.
func (a WordAddr) Compare(b WordAddr) int {
	return cmp.Or(cmp.Compare(a.Bank, b.Bank), cmp.Compare(a.Row, b.Row), cmp.Compare(a.Word, b.Word))
}

// ArchShield remaps words containing known-faulty cells into a reserved
// segment of DRAM (the FaultMap region), following Nair et al. [ISCA'13] as
// used in the paper's Section 7.1.1. The reserved segment is assumed to be
// verified strong (in the real design it is ECC-protected and scrubbed).
type ArchShield struct {
	st   *memctrl.Station //lint:serialized-elsewhere station wiring; the stack is rebuilt by construction before RestoreState
	geom dram.Geometry    //lint:serialized-elsewhere copied from the station's device geometry at construction

	// reservedFromRow is the first reserved global row; rows at or beyond
	// it hold remapped words and are not part of the visible address space.
	reservedFromRow uint32
	remap           map[uint64]uint64 // faulty word index -> spare word index
	nextSpare       uint64
	spareLimit      uint64
}

// NewArchShield reserves reserveFraction of the device's rows (the paper
// uses 4%) as the spare segment. The reserved rows are taken from the top of
// the global row space.
func NewArchShield(st *memctrl.Station, reserveFraction float64) (*ArchShield, error) {
	if st == nil {
		return nil, fmt.Errorf("mitigate: nil station")
	}
	if reserveFraction <= 0 || reserveFraction >= 1 {
		return nil, fmt.Errorf("mitigate: reserve fraction %v out of (0,1)", reserveFraction)
	}
	geom := st.Device().Geometry()
	total := uint32(geom.TotalRows())
	reserved := uint32(float64(total) * reserveFraction)
	if reserved < 1 {
		reserved = 1
	}
	a := &ArchShield{
		st:              st,
		geom:            geom,
		reservedFromRow: total - reserved,
		remap:           make(map[uint64]uint64),
	}
	a.nextSpare = uint64(a.reservedFromRow) * uint64(geom.WordsPerRow)
	a.spareLimit = uint64(total) * uint64(geom.WordsPerRow)
	return a, nil
}

// wordIndex converts an address to a flat word index.
func (a *ArchShield) wordIndex(addr WordAddr) uint64 {
	gr := a.geom.GlobalRow(addr.Bank, addr.Row)
	return uint64(gr)*uint64(a.geom.WordsPerRow) + uint64(addr.Word)
}

func (a *ArchShield) addrOfWordIndex(w uint64) WordAddr {
	gr := uint32(w / uint64(a.geom.WordsPerRow))
	return WordAddr{
		Bank: int(gr) / a.geom.RowsPerBank,
		Row:  int(gr) % a.geom.RowsPerBank,
		Word: int(w % uint64(a.geom.WordsPerRow)),
	}
}

// InReservedSegment reports whether an address lies in the spare segment.
func (a *ArchShield) InReservedSegment(addr WordAddr) bool {
	return a.geom.GlobalRow(addr.Bank, addr.Row) >= a.reservedFromRow
}

// Install consumes a profiled failing-cell set: every visible word that
// contains a failing cell is remapped to a fresh spare word. Spare words
// that the profile itself marks as faulty are skipped during allocation (as
// the real design verifies its spare region). It returns an error if the
// spare segment runs out (the cost of excessive false positives).
// Installing twice extends the existing map (already-remapped words are
// kept).
func (a *ArchShield) Install(failures *core.FailureSet) error {
	// Every word touched by a profiled failure — including words inside
	// the reserved segment — is unusable as a spare.
	faulty := make(map[uint64]struct{})
	for _, bit := range failures.Sorted() {
		addr := a.geom.AddrOf(bit)
		faulty[a.wordIndex(WordAddr{Bank: addr.Bank, Row: addr.Row, Word: addr.Word})] = struct{}{}
	}
	allocSpare := func() (uint64, bool) {
		for a.nextSpare < a.spareLimit {
			s := a.nextSpare
			a.nextSpare++
			if _, bad := faulty[s]; !bad {
				return s, true
			}
		}
		return 0, false
	}
	for _, bit := range failures.Sorted() {
		addr := a.geom.AddrOf(bit)
		wa := WordAddr{Bank: addr.Bank, Row: addr.Row, Word: addr.Word}
		if a.InReservedSegment(wa) {
			continue
		}
		wi := a.wordIndex(wa)
		if _, done := a.remap[wi]; done {
			continue
		}
		spare, ok := allocSpare()
		if !ok {
			return fmt.Errorf("mitigate: ArchShield spare segment exhausted after %d remaps", len(a.remap))
		}
		a.remap[wi] = spare
	}
	return nil
}

// resolve returns the physical address backing a visible address.
func (a *ArchShield) resolve(addr WordAddr) WordAddr {
	if spare, ok := a.remap[a.wordIndex(addr)]; ok {
		return a.addrOfWordIndex(spare)
	}
	return addr
}

// Resolve returns the physical address currently backing a visible address
// (the address itself when the word is not remapped). Exposed so other
// layers that bypass Read/Write — the ECC scrubber routing its sweeps
// through the fault map, or a fault injector aiming at the physical cells a
// word resides in — can follow the remapping.
func (a *ArchShield) Resolve(addr WordAddr) WordAddr { return a.resolve(addr) }

// ConsumeSpares permanently retires up to n spare words from the reserved
// segment and returns how many were actually consumed (less than n when the
// segment runs dry). It models mitigation capacity exhaustion: in a real
// deployment spares are spent by other subsystems too (post-package repair,
// earlier profiles' false positives), and a fault scenario uses this to
// drive Install into its spare-segment-exhausted error path.
func (a *ArchShield) ConsumeSpares(n uint64) uint64 {
	left := a.spareLimit - a.nextSpare
	if n > left {
		n = left
	}
	a.nextSpare += n
	return n
}

// RemapTargets returns the physical spare-segment addresses currently
// backing remapped words, in ascending word-index order. A fault injector
// uses this to aim new weak cells at the words where the mitigation
// mechanism concentrated live data — the adversarial worst case for spare
// segment reliability, since Install never remaps reserved-segment words.
func (a *ArchShield) RemapTargets() []WordAddr {
	spares := make([]uint64, 0, len(a.remap))
	for _, spare := range a.remap {
		spares = append(spares, spare)
	}
	slices.Sort(spares)
	out := make([]WordAddr, len(spares))
	for i, s := range spares {
		out[i] = a.addrOfWordIndex(s)
	}
	return out
}

// Write stores a word through the fault map.
func (a *ArchShield) Write(addr WordAddr, val uint64) error {
	if a.InReservedSegment(addr) {
		return fmt.Errorf("mitigate: address %+v is in the reserved segment", addr)
	}
	p := a.resolve(addr)
	return a.st.WriteWord(p.Bank, p.Row, p.Word, val)
}

// Read loads a word through the fault map.
func (a *ArchShield) Read(addr WordAddr) (uint64, error) {
	if a.InReservedSegment(addr) {
		return 0, fmt.Errorf("mitigate: address %+v is in the reserved segment", addr)
	}
	p := a.resolve(addr)
	return a.st.ReadWord(p.Bank, p.Row, p.Word)
}

// RemappedWords returns the number of words currently remapped.
func (a *ArchShield) RemappedWords() int { return len(a.remap) }

// SpareWordsLeft returns the remaining spare capacity.
func (a *ArchShield) SpareWordsLeft() uint64 { return a.spareLimit - a.nextSpare }

// CapacityOverhead returns the fraction of device capacity consumed by the
// reserved segment.
func (a *ArchShield) CapacityOverhead() float64 {
	total := uint32(a.geom.TotalRows())
	return float64(total-a.reservedFromRow) / float64(total)
}
