// Package scrub implements an AVATAR-style ECC-scrubbing profiler (Qureshi
// et al., DSN'15), the passive alternative the paper analyzes in Section
// 3.2: every memory word is protected by SECDED ECC, a scrubber
// periodically sweeps memory, corrects single-bit errors, and records the
// failing addresses as a retention profile.
//
// The paper's criticism — which this package makes demonstrable — is that
// scrubbing is *passive*: it only observes failures under the data that
// happens to be stored. A row that scrubs clean can be rewritten with an
// unfavourable data pattern (DPD, Section 2.3.2) and then accumulate a
// multi-bit error before the next scrub, which SECDED cannot correct.
// Active profiling (REAPER) tests worst-case patterns deliberately and
// finds those cells in advance.
package scrub

import (
	"fmt"
	"slices"

	"reaper/internal/core"
	"reaper/internal/ecc"
	"reaper/internal/memctrl"
	"reaper/internal/mitigate"
	"reaper/internal/telemetry"
)

// ECCMemory overlays SECDED(72,64) on a station: the 64 data bits live in
// the simulated device, the 8 check bits in controller-side storage
// (modelling the ECC DIMM's extra devices, which this testbed does not
// simulate at cell level).
type ECCMemory struct {
	st     *memctrl.Station //lint:serialized-elsewhere station wiring; the stack is rebuilt by construction before RestoreState
	checks map[mitigate.WordAddr]uint8
	mapper func(mitigate.WordAddr) mitigate.WordAddr //lint:serialized-elsewhere remap closure; re-attached by SetMapper when the shield is rebuilt
}

// NewECCMemory wraps a station.
func NewECCMemory(st *memctrl.Station) (*ECCMemory, error) {
	if st == nil {
		return nil, fmt.Errorf("scrub: nil station")
	}
	return &ECCMemory{st: st, checks: make(map[mitigate.WordAddr]uint8)}, nil
}

// SetMapper routes every device access through an address translation —
// typically ArchShield.Resolve, so ECC-protected words follow their
// remapping into the spare segment. ECC state stays keyed by the logical
// address; translation happens at access time, so words remapped after
// being written keep their protection (the data at the new physical
// location must be rewritten by the caller, as on a real migration).
func (m *ECCMemory) SetMapper(mapper func(mitigate.WordAddr) mitigate.WordAddr) {
	m.mapper = mapper
}

// physical translates a logical word address to its current backing word.
func (m *ECCMemory) physical(addr mitigate.WordAddr) mitigate.WordAddr {
	if m.mapper == nil {
		return addr
	}
	return m.mapper(addr)
}

// Write stores a word with ECC.
func (m *ECCMemory) Write(addr mitigate.WordAddr, val uint64) error {
	w := ecc.EncodeSECDED(val)
	p := m.physical(addr)
	if err := m.st.WriteWord(p.Bank, p.Row, p.Word, w.Data); err != nil {
		return err
	}
	m.checks[addr] = w.Check
	return nil
}

// Read loads a word through ECC decode. It returns the best-effort value
// and the decode status; Corrected values are NOT written back (that is the
// scrubber's job).
func (m *ECCMemory) Read(addr mitigate.WordAddr) (uint64, ecc.DecodeStatus, error) {
	check, ok := m.checks[addr]
	if !ok {
		return 0, ecc.Clean, fmt.Errorf("scrub: word %+v was never written", addr)
	}
	p := m.physical(addr)
	data, err := m.st.ReadWord(p.Bank, p.Row, p.Word)
	if err != nil {
		return 0, ecc.Clean, err
	}
	val, status, _ := ecc.DecodeSECDED(ecc.Word72{Data: data, Check: check})
	return val, status, nil
}

// Written returns the addresses currently under ECC protection, in
// deterministic order.
func (m *ECCMemory) Written() []mitigate.WordAddr {
	out := make([]mitigate.WordAddr, 0, len(m.checks))
	for a := range m.checks {
		out = append(out, a)
	}
	slices.SortFunc(out, mitigate.WordAddr.Compare)
	return out
}

// ScrubReport summarizes one scrub pass. It is the per-window ECC telemetry
// a resilience controller consumes: corrected (CE) and uncorrectable (UE)
// counts plus the exact words that were SECDED-fatal this pass.
type ScrubReport struct {
	WordsScanned  int
	Corrected     int
	Uncorrectable int
	// Uncorrectables lists the logical addresses of the words that decoded
	// as double-bit errors this pass, in deterministic (ascending) order.
	Uncorrectables []mitigate.WordAddr
}

// Scrubber periodically sweeps the ECC memory, repairs single-bit errors by
// rewriting the corrected data, and accumulates the profile of addresses
// observed to fail — the AVATAR retention profile.
type Scrubber struct {
	mem     *ECCMemory       //lint:serialized-elsewhere memory wiring; the stack is rebuilt by construction before RestoreState
	profile *core.FailureSet // failing *word* bit addresses (first bit of word)
	// UncorrectableTotal counts double-bit (SECDED-fatal) events seen.
	UncorrectableTotal int
	// Rounds counts completed scrub passes.
	Rounds int

	// Telemetry (see Instrument); nil on an uninstrumented scrubber.
	tele       *telemetry.Registry //lint:serialized-elsewhere telemetry wiring; re-attached by Instrument, nil-safe when absent
	tracer     *telemetry.Tracer   //lint:serialized-elsewhere telemetry wiring; the tracer checkpoints through its own codec
	teleLabels []telemetry.Label   //lint:serialized-elsewhere telemetry wiring; re-attached by Instrument, nil-safe when absent
}

// NewScrubber builds a scrubber over an ECC memory.
func NewScrubber(mem *ECCMemory) (*Scrubber, error) {
	if mem == nil {
		return nil, fmt.Errorf("scrub: nil memory")
	}
	return &Scrubber{mem: mem, profile: core.NewFailureSet()}, nil
}

// Instrument attaches a telemetry registry and (optionally) a tracer: each
// Scrub pass records scrub_passes_total, scrub_words_scanned_total,
// scrub_corrected_total, and scrub_uncorrectable_total, and emits one
// "scrub-pass" trace event stamped with the station clock. Counters are
// commutative across scrubbers sharing a registry; a tracer is
// single-owner. The labels are stamped on trace events (e.g. chip=3).
func (s *Scrubber) Instrument(reg *telemetry.Registry, tracer *telemetry.Tracer, labels ...telemetry.Label) {
	s.tele = reg
	s.tracer = tracer
	s.teleLabels = labels
}

// Scrub sweeps every written word once. Corrected words are rewritten with
// clean data; uncorrectable words are left in place (the system would crash
// or page them out) but still recorded in the profile.
func (s *Scrubber) Scrub() (ScrubReport, error) {
	var rep ScrubReport
	geom := s.mem.st.Device().Geometry()
	for _, addr := range s.mem.Written() {
		val, status, err := s.mem.Read(addr)
		if err != nil {
			return rep, err
		}
		rep.WordsScanned++
		switch status {
		case ecc.Corrected:
			rep.Corrected++
			s.recordWord(geom.BitIndex(toDRAMAddr(addr)))
			if err := s.mem.Write(addr, val); err != nil {
				return rep, err
			}
		case ecc.DoubleError:
			rep.Uncorrectable++
			s.UncorrectableTotal++
			rep.Uncorrectables = append(rep.Uncorrectables, addr)
			s.recordWord(geom.BitIndex(toDRAMAddr(addr)))
		}
	}
	s.Rounds++
	s.tele.Counter("scrub_passes_total").Inc()
	s.tele.Counter("scrub_words_scanned_total").Add(int64(rep.WordsScanned))
	s.tele.Counter("scrub_corrected_total").Add(int64(rep.Corrected))
	s.tele.Counter("scrub_uncorrectable_total").Add(int64(rep.Uncorrectable))
	s.tracer.Emit(s.mem.st.Clock(), "scrub-pass",
		fmt.Sprintf("scanned=%d corrected=%d uncorrectable=%d",
			rep.WordsScanned, rep.Corrected, rep.Uncorrectable), s.teleLabels...)
	return rep, nil
}

func (s *Scrubber) recordWord(bit uint64) { s.profile.Add(bit) }

// WordCoverage scores the scrubber's profile against a ground-truth cell
// set at word granularity: the fraction of truth cells whose containing
// word is in the scrubber's profile.
func (s *Scrubber) WordCoverage(truth *core.FailureSet, st *memctrl.Station) float64 {
	if truth.Len() == 0 {
		return 1
	}
	geom := st.Device().Geometry()
	hit := 0
	for _, bit := range truth.Sorted() {
		a := geom.AddrOf(bit)
		a.Bit = 0
		if s.profile.Contains(geom.BitIndex(a)) {
			hit++
		}
	}
	return float64(hit) / float64(truth.Len())
}
