package dram

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"reaper/internal/rng"
)

// RowData supplies the logical content of device rows. Implementations must
// be deterministic: Word(row, w) must always return the same value for the
// same arguments, because the device re-derives stored content from the
// descriptor instead of materializing it. The patterns package provides the
// standard retention-test patterns as RowData values.
type RowData interface {
	Word(globalRow uint32, word int) uint64
}

// sliceRowData wraps explicitly written row contents.
type sliceRowData []uint64

func (s sliceRowData) Word(_ uint32, w int) uint64 { return s[w] }

// zeroData is the all-zero content a device holds after power-up.
type zeroData struct{}

func (zeroData) Word(uint32, int) uint64 { return 0 }

// zClip bounds the per-read normal failure CDF: a cell cannot fail before
// mu - zClip*sigma and always fails after mu + zClip*sigma. Physically the
// normal spread models sense-amplifier marginality near the cell's retention
// point; far from it the outcome is deterministic. The clip is what makes
// operation at the default 64 ms interval lossless for the weak-cell
// population (min retention 256 ms), as on real (non-defective) devices.
const zClip = 3.5

// vrtDomainMaxS caps the retention domain (seconds) of the latent VRT
// reservoir; see sampleWeakPopulation.
const vrtDomainMaxS = 6.5

// Config configures a simulated device.
type Config struct {
	Geometry Geometry
	Vendor   VendorParams
	Seed     uint64

	// WeakScale multiplies the weak-cell density. Scaled-down test chips
	// use WeakScale > 1 so that a megabit-sized device carries a
	// statistically meaningful weak population; the default is 1.
	WeakScale float64

	// MinRetention / MaxRetention bound the modelled retention-mean domain
	// in seconds at the reference temperature. Cells outside the domain
	// are "strong" and never fail. Defaults: 0.256 s and 8 s.
	MinRetention float64
	MaxRetention float64

	// AmbientTempC is the initial ambient temperature; default RefTempC.
	AmbientTempC float64

	// DisableVRT / DisableDPD switch off those phenomena for ablation
	// experiments.
	DisableVRT bool
	DisableDPD bool
}

func (c *Config) fillDefaults() {
	if c.WeakScale == 0 {
		c.WeakScale = 1
	}
	if c.MinRetention == 0 {
		c.MinRetention = 0.256
	}
	if c.MaxRetention == 0 {
		c.MaxRetention = 8
	}
	if c.AmbientTempC == 0 {
		c.AmbientTempC = RefTempC
	}
}

// rowState records how a row deviates from the device-wide bulk state:
// different content and/or a different last-restore time.
type rowState struct {
	data       RowData // nil: use the device bulk content
	restoredAt float64
	overrides  map[int]uint64 // word index -> value, for partial writes
}

// Device is a simulated LPDDR4 DRAM device. It is not safe for concurrent
// use; experiments drive one device from one goroutine (matching the single
// command bus of a real chip).
type Device struct {
	cfg  Config
	geom Geometry
	vend VendorParams //lint:serialized-elsewhere pure function of cfg; rebuilt by construction, guarded by the in-band cfg.Seed check

	weak []*weakCell // all weak cells, sorted by bit index
	// rowStart holds, per flat row r, the offset of the row's first cell in
	// weak: rows are contiguous bit ranges, so row r's cells are
	// weak[rowStart[r]:rowStart[r+1]] (see rowCells).
	//lint:serialized-elsewhere construction-derived: row offsets into weak; construction and recountRows (after injection and delta replay) rebuild them
	rowStart []int32

	// cellArena backs weakCell storage in pointer-stable chunks: full
	// chunks are abandoned (the cells carved from them keep them alive),
	// never grown, so &cellArena[i] stays valid for the device's lifetime.
	// Construction carves the base cells from one chunk sized to their
	// count and the VRT reservoir from another; later injections and
	// restores take cellArenaChunk-cell chunks.
	//lint:serialized-elsewhere allocation backing store; restore re-carves cells through the same arena allocator
	cellArena []weakCell

	// Sparse active-window index (see index.go): the weak population sorted
	// by activation key, the parallel key array binary-searched per sweep,
	// the overlay of currently stuck cells, a reusable band scratch slice,
	// and the cumulative disposition counters.
	actCells  []*weakCell //lint:serialized-elsewhere active-window index; rebuilt from the restored weak population by rebuildIndex
	actKeys   []float64   //lint:serialized-elsewhere parallel key array of actCells; rebuilt by rebuildIndex
	stuckList []*weakCell
	band      []*weakCell
	idx       IndexStats

	bulkData   RowData
	bulkTime   float64
	rows       map[uint32]*rowState
	tempC      float64
	autoRef    float64 // auto-refresh interval in seconds; 0 = refresh disabled
	src        *rng.Source
	readsDone  uint64
	flipsSoFar uint64

	// contentEpoch increments on every operation that changes stored
	// (written) data. Per-cell neighbourhood codes are cached against it:
	// reads never change written content, so the code computed on the first
	// sample after a write stays valid until the next write.
	contentEpoch uint64

	// Incremental round cache (incremental.go): classification results keyed
	// by the sweep's (content, temperature, elapsed, auto-refresh) signature,
	// the list of cells injected since the cache last emptied, and the
	// fast/full round counters. bulkComparable records whether bulkData's
	// dynamic type supports ==, the cheap content-identity test the cache
	// keys rely on.
	cacheOn        bool
	rounds         map[roundKey]*roundEntry
	dirtyCells     []*weakCell
	incr           IncrStats
	bulkComparable bool

	// failScratch is the reusable failing-bit accumulator of full-device
	// sweeps; collecting sweeps copy it into an exact-size result.
	failScratch []uint64

	// Delta-codec divergence journals (delta.go): the cells injected since
	// construction (in insertion order), and the cells whose dpdSeed or VRT
	// state an injection hook overwrote. Together with the stuck overlay,
	// row deviations, and stream positions, these are the only ways a live
	// device diverges from its seed-derived construction — naturally drifted
	// VRT cells need no journal entry because vrtState.advance is a pure
	// catch-up function of (construction state, max time seen). This is what
	// lets EncodeDelta checkpoint a chip as O(deviations) bytes instead of
	// O(weak cells).
	injected    []*weakCell
	dpdReseeded []*weakCell
	vrtForced   []*weakCell
}

// validate fills defaults and checks the config is usable; NewDevice and
// NewChipRef share it.
func (c *Config) validate() error {
	c.fillDefaults()
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if err := c.Vendor.Validate(); err != nil {
		return err
	}
	if c.MinRetention <= 0 || c.MaxRetention <= c.MinRetention {
		return fmt.Errorf("dram: invalid retention domain [%v, %v]", c.MinRetention, c.MaxRetention)
	}
	return nil
}

// NewDevice builds a device and samples its weak-cell population.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := &Device{
		cfg:            cfg,
		geom:           cfg.Geometry,
		vend:           cfg.Vendor,
		bulkData:       zeroData{},
		bulkComparable: true,
		rows:           make(map[uint32]*rowState),
		tempC:          cfg.AmbientTempC,
		src:            rng.New(cfg.Seed),
		cacheOn:        true,
		contentEpoch:   1, // so zero-valued per-cell caches start invalid
	}
	d.sampleWeakPopulation()
	return d, nil
}

// sampleWeakPopulation draws the base weak cells and the latent VRT
// reservoir from the vendor's calibrated distributions.
func (d *Device) sampleWeakPopulation() {
	v := &d.vend
	bits := float64(d.geom.TotalBits())
	tmin, tmax := d.cfg.MinRetention, d.cfg.MaxRetention

	// Base weak cells: retention means follow the power-law tail that
	// produces BER(t) = BERAt1024ms * (t/1.024s)^beta at 45C.
	expected := bits * v.BER(tmax, RefTempC) * d.cfg.WeakScale
	n := d.src.Poisson(expected)
	taken := make(map[uint64]struct{}, n)
	base := newPowerLaw(tmin, tmax, v.BERExponent)
	logSigma := v.sigmaLogMean()
	d.weak = make([]*weakCell, 0, n)
	d.cellArena = make([]weakCell, 0, n)
	for i := 0; i < n; i++ {
		mu := base.sample(d.src)
		d.addWeakCell(taken, logSigma, mu, !d.cfg.DisableVRT && d.src.Bernoulli(v.VRTFraction), 0)
	}

	// Latent VRT reservoir: cells whose high-retention state is beyond the
	// domain (they never fail "normally") but whose low-retention state is
	// inside it. In steady state they enter the failing population at rate
	// A(t) = count(muLow <= t) / (dwellLow + dwellHigh), so the reservoir
	// size is A(tmax) * (dwellLow + dwellHigh).
	if !d.cfg.DisableVRT {
		// The reservoir's low-retention domain is capped below the overall
		// retention domain: the steep VRT rate power law (Figure 4) is a
		// fit over the paper's tested intervals (<= ~4 s) and extrapolating
		// it to tens of seconds would produce a nonphysical reservoir.
		vrtMax := tmax
		if vrtMax > vrtDomainMaxS {
			vrtMax = vrtDomainMaxS
		}
		dwellSum := v.VRTDwellLowHours + v.VRTDwellHighHours // hours
		latent := v.VRTRate(vrtMax, RefTempC, d.geom.TotalBytes()) * dwellSum * d.cfg.WeakScale
		m := d.src.Poisson(latent)
		reservoir := newPowerLaw(tmin, vrtMax, v.VRTRateExponent)
		d.weak = slices.Grow(d.weak, m)
		d.cellArena = make([]weakCell, 0, m)
		for i := 0; i < m; i++ {
			muLow := reservoir.sample(d.src)
			d.addWeakCell(taken, logSigma, muLow, true, tmax*10)
		}
	}

	d.sortWeakByRow()
	d.rebuildIndex()
}

// sortWeakByRow puts the weak population, drawn in random bit order, into
// bit order and builds rowStart. Rows are contiguous bit ranges and bits are
// unique (the taken set), so a counting sort by row followed by a sort
// inside each row gives exactly the order a sort of the whole population by
// bit gives, while each comparison sort only sees one row's cells.
func (d *Device) sortWeakByRow() {
	rows := d.geom.TotalRows()
	start := make([]int32, rows+1)
	for _, c := range d.weak {
		start[d.geom.rowOfBit(c.bit)]++
	}
	// Inclusive prefix sums leave start[r] at the end of row r; the reverse
	// scatter below decrements each row's cursor to its first slot.
	for r := 1; r < rows; r++ {
		start[r] += start[r-1]
	}
	start[rows] = int32(len(d.weak))
	sorted := make([]*weakCell, len(d.weak))
	for i := len(d.weak) - 1; i >= 0; i-- {
		c := d.weak[i]
		r := d.geom.rowOfBit(c.bit)
		start[r]--
		sorted[start[r]] = c
	}
	for r := 0; r < rows; r++ {
		slices.SortFunc(sorted[start[r]:start[r+1]], func(a, b *weakCell) int { return cmp.Compare(a.bit, b.bit) })
	}
	d.weak = sorted
	d.rowStart = start
}

// recountRows rebuilds rowStart from the weak population, which must be in
// bit order, in one pass over the rows and the cells. Injection and delta
// replay insert cells without touching the offsets and call it once per
// batch, so a batch of k cells costs one pass rather than k.
func (d *Device) recountRows() {
	rowBits := uint64(d.geom.RowBits())
	i := 0
	for r := 1; r < len(d.rowStart); r++ {
		end := uint64(r) * rowBits
		for i < len(d.weak) && d.weak[i].bit < end {
			i++
		}
		d.rowStart[r] = int32(i)
	}
}

// rowCells returns the weak cells of flat row r, in bit order.
func (d *Device) rowCells(r uint32) []*weakCell {
	return d.weak[d.rowStart[r]:d.rowStart[r+1]]
}

// cellArenaChunk is the cell count per arena chunk: large enough that a
// bench-scale population costs tens of allocations, small enough that a
// sparse device does not strand much memory.
const cellArenaChunk = 1024

// allocCell returns a zeroed weakCell carved from the device's chunked
// arena. Chunks are never reallocated once a cell has been handed out, so
// the returned pointer is stable.
func (d *Device) allocCell() *weakCell {
	if len(d.cellArena) == cap(d.cellArena) {
		d.cellArena = make([]weakCell, 0, cellArenaChunk)
	}
	d.cellArena = append(d.cellArena, weakCell{})
	return &d.cellArena[len(d.cellArena)-1]
}

// addWeakCell creates one weak cell at a fresh random bit position, drawing
// its sigma around logSigma, the vendor's sigmaLogMean. muHighOverride > 0
// forces the VRT high-retention state to that value (used for the latent
// reservoir); otherwise a VRT cell's high state is a random multiple of its
// low state.
func (d *Device) addWeakCell(taken map[uint64]struct{}, logSigma, mu float64, vrt bool, muHighOverride float64) {
	var bit uint64
	for {
		bit = d.src.Uint64n(uint64(d.geom.TotalBits()))
		if _, dup := taken[bit]; !dup {
			taken[bit] = struct{}{}
			break
		}
	}
	v := &d.vend
	sigma := d.src.LogNormal(logSigma, v.SigmaLogSigma)
	if sigmaCap := mu / 5; sigma > sigmaCap {
		sigma = sigmaCap
	}
	sens := 0.0
	if !d.cfg.DisableDPD {
		u := d.src.Float64()
		sens = v.DPDStrength * u * u
	}
	c := d.allocCell()
	*c = weakCell{
		bit:        bit,
		mu:         mu,
		sigma:      sigma,
		chargedVal: uint8(d.src.Intn(2)),
		dpdSens:    sens,
		dpdSeed:    d.src.Uint64(),
		stuck:      -1,
	}
	if vrt {
		muHigh := muHighOverride
		if muHigh <= 0 {
			muHigh = mu * (3 + 5*d.src.Float64())
		}
		vs := &vrtState{
			muLow:     mu,
			muHigh:    muHigh,
			dwellLow:  d.src.Exp(d.vend.VRTDwellLowHours) * 3600,
			dwellHigh: d.src.Exp(d.vend.VRTDwellHighHours) * 3600,
			src:       d.src.Split(bit),
		}
		if vs.dwellLow < 600 {
			vs.dwellLow = 600
		}
		if vs.dwellHigh < 600 {
			vs.dwellHigh = 600
		}
		// Stationary initial state.
		vs.inLow = vs.src.Bernoulli(vs.dwellLow / (vs.dwellLow + vs.dwellHigh))
		mean := vs.dwellHigh
		if vs.inLow {
			mean = vs.dwellLow
		}
		vs.nextSwitch = vs.src.Exp(mean)
		c.vrt = vs
	}
	d.weak = append(d.weak, c)
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geom }

// Vendor returns the device's vendor parameter set.
func (d *Device) Vendor() VendorParams { return d.vend }

// WeakCellCount returns the number of modelled weak cells (including the
// latent VRT reservoir).
func (d *Device) WeakCellCount() int { return len(d.weak) }

// SetTemperature sets the ambient temperature the device currently sees.
// Retention scales exponentially with it per Equation 1.
func (d *Device) SetTemperature(c float64) { d.tempC = c }

// Temperature returns the current ambient temperature.
func (d *Device) Temperature() float64 { return d.tempC }

// SetAutoRefresh configures the device-side model of auto-refresh: interval
// is the per-row refresh interval in seconds, or 0 to model refresh being
// disabled. Under auto-refresh, reads account for possible failures sticking
// at any of the intervening refresh points (a refresh restores whatever the
// sense amplifiers read, including a wrong value — the paper's Figure 1c).
func (d *Device) SetAutoRefresh(interval float64) {
	if interval < 0 {
		interval = 0
	}
	d.autoRef = interval
}

// AutoRefresh returns the configured auto-refresh interval (0 if disabled).
func (d *Device) AutoRefresh() float64 { return d.autoRef }

// stateOf returns the row's content source and last-restore time.
func (d *Device) stateOf(row uint32) (RowData, float64, *rowState) {
	if rs, ok := d.rows[row]; ok {
		data := rs.data
		if data == nil {
			data = d.bulkData
		}
		return data, rs.restoredAt, rs
	}
	return d.bulkData, d.bulkTime, nil
}

// wordAt returns the logical (written) value of a word, honouring overrides.
// The no-deviation fast path matters: right after a bulk pattern write —
// the state every profiling pass reads from — there are no per-row records,
// and the word comes straight out of the pattern descriptor with no map
// lookups at all.
func (d *Device) wordAt(row uint32, word int) uint64 {
	if len(d.rows) == 0 {
		return d.bulkData.Word(row, word)
	}
	data, _, rs := d.stateOf(row)
	if rs != nil && rs.overrides != nil {
		if v, ok := rs.overrides[word]; ok {
			return v
		}
	}
	return data.Word(row, word)
}

// bitAt returns the logical (written) value of a single bit.
func (d *Device) bitAt(row uint32, word, bit int) uint8 {
	return uint8(d.wordAt(row, word) >> uint(bit) & 1)
}

// neighborhoodCode encodes the stored values of a cell's four neighbours
// (left, right, above, below) as a 4-bit code for the DPD model. Neighbours
// outside the device read as 0.
func (d *Device) neighborhoodCode(bit uint64) uint64 {
	a := d.geom.AddrOf(bit)
	row := d.geom.GlobalRow(a.Bank, a.Row)
	rowBits := d.geom.RowBits()
	pos := a.Word*WordBits + a.Bit

	var code uint64
	if p := pos - 1; p >= 0 {
		code |= uint64(d.bitAt(row, p/WordBits, p%WordBits))
	}
	if p := pos + 1; p < rowBits {
		code |= uint64(d.bitAt(row, p/WordBits, p%WordBits)) << 1
	}
	if a.Row > 0 {
		code |= uint64(d.bitAt(row-1, pos/WordBits, pos%WordBits)) << 2
	}
	if a.Row < d.geom.RowsPerBank-1 {
		code |= uint64(d.bitAt(row+1, pos/WordBits, pos%WordBits)) << 3
	}
	return code
}

// neighborhoodCodeOf returns the cell's neighbourhood code, reusing the
// per-cell cache when the stored content has not changed since the last
// computation. Reads (including failures sticking) never change written
// content, so within one write epoch the code is a constant of the cell.
func (d *Device) neighborhoodCodeOf(c *weakCell) uint64 {
	if c.nbrEpoch == d.contentEpoch {
		return uint64(c.nbrCode)
	}
	code := d.neighborhoodCode(c.bit)
	c.nbrCode = uint8(code)
	c.nbrEpoch = d.contentEpoch
	return code
}

// sampleRead determines the value read from a weak cell at simulated time
// now, given the row's last-restore time, and updates the cell's stuck state
// (reading restores what was read). It returns the read bit value.
func (d *Device) sampleRead(c *weakCell, row uint32, now, restoredAt float64) uint8 {
	a := d.geom.AddrOf(c.bit)
	written := d.bitAt(row, a.Word, a.Bit)
	return d.sampleReadBit(c, written, now, restoredAt)
}

// sampleReadBit is sampleRead with the cell's written value already in hand
// (the bulk read path fetches it once per cell while walking rows). It must
// consume RNG draws exactly as the sequential seed implementation did: a
// draw happens only for probabilities strictly inside (0, 1), so the early
// exits below skip no draws.
func (d *Device) sampleReadBit(c *weakCell, written uint8, now, restoredAt float64) uint8 {
	if c.stuck >= 0 {
		return uint8(c.stuck)
	}
	elapsed := now - restoredAt
	if elapsed <= 0 {
		return written
	}
	code := d.neighborhoodCodeOf(c)
	failed := false
	if d.autoRef > 0 && elapsed > d.autoRef {
		// k full refresh cycles have passed; a failure at any of them was
		// restored as a stuck wrong value. Per-cycle outcomes are modelled
		// as independent trials.
		k := math.Floor(elapsed / d.autoRef)
		p := d.clippedFailProb(c, d.autoRef, written, code, now)
		pStick := -math.Expm1(k * math.Log1p(-p))
		if d.src.Bernoulli(pStick) {
			failed = true
		} else {
			resid := elapsed - k*d.autoRef
			failed = d.src.Bernoulli(d.clippedFailProb(c, resid, written, code, now))
		}
	} else {
		failed = d.src.Bernoulli(d.clippedFailProb(c, elapsed, written, code, now))
	}
	if failed {
		d.markStuck(c, written^1)
		return written ^ 1
	}
	return written
}

// clippedFailProb is the per-read failure probability with the zClip
// deterministic bounds applied.
func (d *Device) clippedFailProb(c *weakCell, elapsed float64, written uint8, code uint64, now float64) float64 {
	if written != c.chargedVal {
		return 0
	}
	scale := d.vend.muTempScale(d.tempC)
	mu := c.muAt(now) * scale * c.dpdFactor(code)
	sigma := c.sigma * scale
	if elapsed < mu-zClip*sigma {
		return 0
	}
	if elapsed > mu+zClip*sigma {
		return 1
	}
	return c.failProb(elapsed, d.tempC, written, code, &d.vend, now)
}

// ensureRowState returns (creating if needed) the deviation record for a row.
func (d *Device) ensureRowState(row uint32) *rowState {
	rs, ok := d.rows[row]
	if !ok {
		rs = &rowState{restoredAt: d.bulkTime}
		d.rows[row] = rs
	}
	return rs
}

// clearStuck resets the stuck state of all weak cells in a row (a write
// replaces the charge, erasing any past failure).
func (d *Device) clearStuck(row uint32) {
	for _, c := range d.rowCells(row) {
		c.stuck = -1
	}
}

// WriteAll writes data to every row of the device at simulated time now.
// This is the bulk operation retention-test passes use; it erases all
// per-row deviations and stuck failures.
func (d *Device) WriteAll(data RowData, now float64) {
	// A rewrite of the identical pattern over undeviated content changes no
	// stored bit, so the per-cell neighbourhood-code caches keyed on
	// contentEpoch stay valid — the common steady-state profiling cadence
	// (same pattern every round) then re-reads cached codes instead of
	// recomputing them. The identity test needs ==, which only comparable
	// descriptor types support (patterns are; sliceRowData is not).
	same := len(d.rows) == 0 && d.bulkComparable && comparableRowData(data) && data == d.bulkData
	d.bulkData = data
	d.bulkComparable = comparableRowData(data)
	d.bulkTime = now
	if len(d.rows) > 0 {
		d.rows = make(map[uint32]*rowState)
	}
	d.dropStuckList()
	if !same {
		d.contentEpoch++
	}
}

// ReadCompareAll reads every row at simulated time now, compares the read
// data against the stored (written) content, and returns the global bit
// indices that mismatch. As on real DRAM, the read restores what was read:
// failed bits remain wrong until rewritten. After the call, every row's
// charge is considered restored at time now.
//
// The walk is sparse: the active-window index (index.go) binary-searches to
// the cells whose failure probability can be nonzero at this (elapsed,
// temperature) and only those are classified; deterministic p = 0 / p = 1
// cells never reach the failure CDF or the seed stream, so the result is
// byte-identical to the dense per-cell walk.
func (d *Device) ReadCompareAll(now float64) []uint64 {
	return d.sweep(now, true)
}

// RestoreAll models a full refresh sweep at simulated time now: every row is
// read and written back. Failures present at the sweep stick (they are
// restored as wrong values). It is ReadCompareAll without the failure
// collection — no fails slice is allocated or sorted.
func (d *Device) RestoreAll(now float64) {
	d.sweep(now, false)
}

// WriteRow replaces the content of one row at simulated time now. words must
// have exactly Geometry.WordsPerRow entries (the slice is copied).
func (d *Device) WriteRow(bank, row int, words []uint64, now float64) error {
	if err := d.checkRow(bank, row); err != nil {
		return err
	}
	if len(words) != d.geom.WordsPerRow {
		return fmt.Errorf("dram: WriteRow needs %d words, got %d", d.geom.WordsPerRow, len(words))
	}
	gr := d.geom.GlobalRow(bank, row)
	cp := make(sliceRowData, len(words))
	copy(cp, words)
	d.rows[gr] = &rowState{data: cp, restoredAt: now}
	d.clearStuck(gr)
	d.contentEpoch++
	return nil
}

// ReadRow activates and reads one row at simulated time now, returning its
// current content with any retention failures applied. The activation
// restores the row (wrong values stick until rewritten).
func (d *Device) ReadRow(bank, row int, now float64) ([]uint64, error) {
	if err := d.checkRow(bank, row); err != nil {
		return nil, err
	}
	gr := d.geom.GlobalRow(bank, row)
	_, restoredAt, _ := d.stateOf(gr)
	words := make([]uint64, d.geom.WordsPerRow)
	for w := range words {
		words[w] = d.wordAt(gr, w)
	}
	for _, c := range d.rowCells(gr) {
		a := d.geom.AddrOf(c.bit)
		got := d.sampleRead(c, gr, now, restoredAt)
		if got == 1 {
			words[a.Word] |= 1 << uint(a.Bit)
		} else {
			words[a.Word] &^= 1 << uint(a.Bit)
		}
	}
	rs := d.ensureRowState(gr)
	rs.restoredAt = now
	return words, nil
}

// WriteWord writes a single 64-bit word. The implied row activation restores
// the rest of the row first (sampling retention failures), as on hardware.
func (d *Device) WriteWord(bank, row, word int, val uint64, now float64) error {
	if err := d.checkRow(bank, row); err != nil {
		return err
	}
	if word < 0 || word >= d.geom.WordsPerRow {
		return fmt.Errorf("dram: word %d out of range", word)
	}
	gr := d.geom.GlobalRow(bank, row)
	// Activation restores the row: sample failures now so they stick.
	_, restoredAt, _ := d.stateOf(gr)
	for _, c := range d.rowCells(gr) {
		d.sampleRead(c, gr, now, restoredAt)
	}
	rs := d.ensureRowState(gr)
	rs.restoredAt = now
	if rs.overrides == nil {
		rs.overrides = make(map[int]uint64)
	}
	rs.overrides[word] = val
	// The write replaces charge in the written word: clear stuck state for
	// weak cells inside it.
	for _, c := range d.rowCells(gr) {
		a := d.geom.AddrOf(c.bit)
		if a.Word == word {
			c.stuck = -1
		}
	}
	d.contentEpoch++
	return nil
}

// ReadWord reads a single word (activating and restoring its row). The
// activation samples every weak cell of the row in row order, exactly as
// ReadRow does, but only the requested word is assembled.
func (d *Device) ReadWord(bank, row, word int, now float64) (uint64, error) {
	if err := d.checkRow(bank, row); err != nil {
		return 0, err
	}
	if word < 0 || word >= d.geom.WordsPerRow {
		return 0, fmt.Errorf("dram: word %d out of range", word)
	}
	gr := d.geom.GlobalRow(bank, row)
	_, restoredAt, _ := d.stateOf(gr)
	val := d.wordAt(gr, word)
	for _, c := range d.rowCells(gr) {
		got := d.sampleRead(c, gr, now, restoredAt)
		if a := d.geom.AddrOf(c.bit); a.Word == word {
			val = val&^(1<<uint(a.Bit)) | uint64(got)<<uint(a.Bit)
		}
	}
	d.ensureRowState(gr).restoredAt = now
	return val, nil
}

// WeakBits returns, for one word, the mask of bits that hold a weak cell and
// the mask of those whose charged (leak-prone) value is 1. An address
// outside the device holds no weak cell.
func (d *Device) WeakBits(bank, row, word int) (weak, charged uint64) {
	if d.checkRow(bank, row) != nil || word < 0 || word >= d.geom.WordsPerRow {
		return 0, 0
	}
	gr := d.geom.GlobalRow(bank, row)
	lo := uint64(gr)*uint64(d.geom.RowBits()) + uint64(word)*WordBits
	for _, c := range d.rowCells(gr) {
		if c.bit >= lo && c.bit < lo+WordBits {
			weak |= 1 << (c.bit - lo)
			charged |= uint64(c.chargedVal) << (c.bit - lo)
		}
	}
	return weak, charged
}

func (d *Device) checkRow(bank, row int) error {
	if bank < 0 || bank >= d.geom.Banks || row < 0 || row >= d.geom.RowsPerBank {
		return fmt.Errorf("dram: bank %d row %d out of range for %v", bank, row, d.geom)
	}
	return nil
}

// Stats returns simple operation counters (reads performed, failures that
// have stuck so far).
func (d *Device) Stats() (readPasses, totalFlips uint64) {
	return d.readsDone, d.flipsSoFar
}

// ContentSnapshot captures the logical content of a device at a moment: the
// bulk pattern, per-row deviations, and the stuck state of every weak cell.
// It models the paper's footnote-4 "save all DRAM data to secondary
// storage" step: a controller streams the data out before profiling and
// back in afterwards (the memctrl layer charges the streaming time).
type ContentSnapshot struct {
	bulkData RowData
	rows     map[uint32]*rowState
	stuck    []int8
}

// SnapshotContent captures the device's current logical content.
func (d *Device) SnapshotContent() *ContentSnapshot {
	snap := &ContentSnapshot{
		bulkData: d.bulkData,
		rows:     make(map[uint32]*rowState, len(d.rows)),
		stuck:    make([]int8, len(d.weak)),
	}
	for k, rs := range d.rows {
		cp := &rowState{data: rs.data, restoredAt: rs.restoredAt}
		if rs.overrides != nil {
			cp.overrides = make(map[int]uint64, len(rs.overrides))
			for w, v := range rs.overrides {
				cp.overrides[w] = v
			}
		}
		snap.rows[k] = cp
	}
	for i, c := range d.weak {
		snap.stuck[i] = c.stuck
	}
	return snap
}

// RestoreContent writes a snapshot back into the device at simulated time
// now. Restoring is a full write of every row: charge is fresh everywhere
// (restoredAt = now), exactly as if the controller streamed the saved data
// back in. Previously stuck (corrupted) values are restored verbatim — the
// save captured whatever the cells held, including earlier corruption.
func (d *Device) RestoreContent(snap *ContentSnapshot, now float64) error {
	if snap == nil {
		return fmt.Errorf("dram: nil snapshot")
	}
	if len(snap.stuck) != len(d.weak) {
		return fmt.Errorf("dram: snapshot from a different device (weak population %d vs %d)",
			len(snap.stuck), len(d.weak))
	}
	d.bulkData = snap.bulkData
	d.bulkComparable = comparableRowData(snap.bulkData)
	d.bulkTime = now
	d.rows = make(map[uint32]*rowState, len(snap.rows))
	for k, rs := range snap.rows {
		cp := &rowState{data: rs.data, restoredAt: now}
		if rs.overrides != nil {
			cp.overrides = make(map[int]uint64, len(rs.overrides))
			for w, v := range rs.overrides {
				cp.overrides[w] = v
			}
		}
		d.rows[k] = cp
	}
	// Rebuild the stuck overlay to mirror the snapshot's corruption.
	for _, c := range d.stuckList {
		c.inStuckList = false
	}
	d.stuckList = d.stuckList[:0]
	for i, c := range d.weak {
		c.stuck = snap.stuck[i]
		if c.stuck >= 0 {
			c.inStuckList = true
			d.stuckList = append(d.stuckList, c)
		}
	}
	d.contentEpoch++
	return nil
}
