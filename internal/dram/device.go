package dram

import (
	"fmt"
	"math"

	"reaper/internal/rng"
	"reaper/internal/stats"
)

// RowData supplies the logical content of device rows. Implementations must
// be deterministic: Word(row, w) must always return the same value for the
// same arguments, because the device re-derives stored content from the
// descriptor instead of materializing it. The patterns package provides the
// standard retention-test patterns as RowData values.
type RowData interface {
	Word(globalRow uint32, word int) uint64
}

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

// The modelled retention-mean domain, in seconds at the reference
// temperature: cells whose mean falls outside it are "strong" and never
// fail.
const (
	minRetentionS = 0.256
	maxRetentionS = 8.0
)

// vrtDomainMaxS caps the retention domain (seconds) of the latent VRT
// reservoir below maxRetentionS: the steep VRT rate power law (Figure 4) is
// a fit over the paper's tested intervals (<= ~4 s), and extrapolating it to
// tens of seconds would produce a nonphysical reservoir.
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

	// DisableVRT / DisableDPD switch off those phenomena for ablation
	// experiments.
	DisableVRT bool
	DisableDPD bool
}

func (c *Config) fillDefaults() {
	if c.WeakScale == 0 {
		c.WeakScale = 1
	}
}

// rowState records how a row deviates from the device-wide bulk state: a
// different last-restore time and/or words written over the bulk content.
type rowState struct {
	restoredAt float64
	overrides  map[int]uint64 // word index -> value, for word writes
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
	// weak[rowStart[r]:rowStart[r+1]] (see rowCells). Construction counts
	// it, with every rank, in one recountRows pass over weak once its bit
	// table has put weak in bit order.
	//lint:serialized-elsewhere construction-derived: row offsets into weak; construction and recountRows (after injection and delta replay) rebuild them
	rowStart []int32

	// cellArena backs weakCell storage in pointer-stable chunks: full
	// chunks are abandoned (the cells carved from them keep them alive),
	// never grown, so &cellArena[i] stays valid for the device's lifetime.
	// Construction draws the base cells into one chunk sized to their count
	// and the VRT reservoir into another, both in draw order and full from
	// the start, so it leaves this empty; later injections and restores
	// take cellArenaChunk-cell chunks.
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

	// Rank bitmaps (index.go), one bit per weak cell at its rank: a sweep
	// marks its band cells (and, collecting, its out-of-order fails) in
	// rankMarks and its new entry's flips in flipMarks, then walks the
	// marked words to read them back in bit order. Every walk clears what
	// it reads, so both are all-zero between sweeps.
	rankMarks []uint64 //lint:serialized-elsewhere per-sweep scratch, all-zero between sweeps; sized by the first sweep after restore
	flipMarks []uint64 //lint:serialized-elsewhere per-sweep scratch, all-zero between sweeps; sized by the first sweep after restore

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

	// fails is the reusable failing-cell accumulator of full-device sweeps
	// (index.go); collecting sweeps turn it into a bit-ordered result. It
	// holds bits and ranks, not cell pointers, so its appends need no GC
	// write barrier.
	fails failList

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
	return c.Vendor.Validate()
}

// NewDevice builds a device and samples its weak-cell population. It fails
// when the population drawn for cfg does not fit on the device's bits.
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
		tempC:          RefTempC,
		src:            rng.New(cfg.Seed),
		cacheOn:        true,
		contentEpoch:   1, // so zero-valued per-cell caches start invalid
	}
	if err := d.sampleWeakPopulation(); err != nil {
		return nil, err
	}
	return d, nil
}

// ExpectedWeakCells returns the means of the two Poisson counts a device
// built from cfg draws its weak population with: base, the cells of the
// retention tail, and reservoir, the latent VRT cells (0 under DisableVRT).
// Construction sizes its bit table with the drawn base count plus the
// reservoir's mean; a caller bounding a chip's memory can bound their sum.
func ExpectedWeakCells(cfg Config) (base, reservoir float64) {
	cfg.fillDefaults()
	v := &cfg.Vendor
	// Base weak cells: retention means follow the power-law tail that
	// produces BER(t) = BERAt1024ms * (t/1.024s)^beta at 45C.
	base = float64(cfg.Geometry.TotalBits()) * v.BER(maxRetentionS, RefTempC) * cfg.WeakScale
	if !cfg.DisableVRT {
		// Latent VRT reservoir: cells whose high-retention state is beyond
		// the domain (they never fail "normally") but whose low-retention
		// state is inside it. In steady state they enter the failing
		// population at rate A(t) = count(muLow <= t) / (dwellLow +
		// dwellHigh), so the reservoir size is A(tmax) * (dwellLow +
		// dwellHigh), with tmax capped at vrtDomainMaxS.
		dwellSum := v.VRTDwellLowHours + v.VRTDwellHighHours // hours
		reservoir = v.VRTRate(vrtDomainMaxS, RefTempC, cfg.Geometry.TotalBytes()) * dwellSum * cfg.WeakScale
	}
	return base, reservoir
}

// sampleWeakPopulation draws the base weak cells and the latent VRT
// reservoir from the vendor's calibrated distributions, then puts them in
// bit order and indexes them. Each cell's bit is drawn until it misses every
// bit drawn before it, so a drawn count larger than the device's bits (or
// than a uint32 rank can hold) is refused with an error before its cells are
// drawn, instead of redrawing forever. So is a config whose expected count
// is not finite: a Poisson draw never returns on a NaN mean.
func (d *Device) sampleWeakPopulation() error {
	v := &d.vend
	total := uint64(d.geom.TotalBits())
	limit := min(total, math.MaxUint32)
	expBase, expReservoir := ExpectedWeakCells(d.cfg)
	if sum := expBase + expReservoir; math.IsNaN(sum) || math.IsInf(sum, 0) {
		return fmt.Errorf("dram: expected weak-cell count %v + %v is not finite", expBase, expReservoir)
	}

	n := d.src.Poisson(expBase)
	if uint64(n) > limit {
		return fmt.Errorf("dram: %d weak cells drawn for a %d-bit device", n, total)
	}
	t := newBitTable(total, n+int(min(math.Ceil(expReservoir), float64(limit))))
	base := newPowerLaw(minRetentionS, maxRetentionS, v.BERExponent)
	logSigma := v.sigmaLogMean()
	cells := make([]weakCell, n)
	for i := range cells {
		mu := base.sample(d.src)
		d.drawWeakCell(&cells[i], t, logSigma, mu, !d.cfg.DisableVRT && d.src.Bernoulli(v.VRTFraction), 0)
	}

	var latent []weakCell
	if !d.cfg.DisableVRT {
		m := d.src.Poisson(expReservoir)
		if uint64(n)+uint64(m) > limit {
			return fmt.Errorf("dram: %d weak cells and %d latent VRT cells drawn for a %d-bit device", n, m, total)
		}
		reservoir := newPowerLaw(minRetentionS, vrtDomainMaxS, v.VRTRateExponent)
		latent = make([]weakCell, m)
		for i := range latent {
			muLow := reservoir.sample(d.src)
			d.drawWeakCell(&latent[i], t, logSigma, muLow, true, maxRetentionS*10)
		}
	}

	// The cells stay where they were drawn; d.weak points at them in bit
	// order, and the table's arrays, free once d.weak is built, are the
	// index sort's working memory.
	sorted, idx := t.order()
	d.weak = make([]*weakCell, len(idx))
	for j, i := range idx {
		if int(i) < n {
			d.weak[j] = &cells[i]
		} else {
			d.weak[j] = &latent[int(i)-n]
		}
	}
	d.rowStart = make([]int32, d.geom.TotalRows()+1)
	d.recountRows()
	d.buildIndex(t.bits, t.next, sorted, idx)
	return nil
}

// recountRows rebuilds rowStart and every cell's rank from the weak
// population, which must be in bit order, in one pass over the rows and the
// cells. Construction calls it once its cells are in order; injection and
// delta replay insert cells without touching either and call it once per
// batch, so a batch of k cells costs one pass rather than k.
func (d *Device) recountRows() {
	rowBits := uint64(d.geom.RowBits())
	i := 0
	for r := 1; r < len(d.rowStart); r++ {
		end := uint64(r) * rowBits
		for i < len(d.weak) && d.weak[i].bit < end {
			d.weak[i].rank = uint32(i)
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

// drawWeakCell draws one weak cell into c at a fresh random bit position,
// redrawing any bit t already holds, with its sigma drawn around logSigma,
// the vendor's sigmaLogMean. muHighOverride > 0 forces the VRT
// high-retention state to that value (used for the latent reservoir);
// otherwise a VRT cell's high state is a random multiple of its low state.
func (d *Device) drawWeakCell(c *weakCell, t *bitTable, logSigma, mu float64, vrt bool, muHighOverride float64) {
	total := uint64(d.geom.TotalBits())
	bit := d.src.Uint64n(total)
	for !t.add(bit) {
		bit = d.src.Uint64n(total)
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
//
//lint:ignore dead-export the firmware and memctrl tests read back the refresh interval their stations program
func (d *Device) AutoRefresh() float64 { return d.autoRef }

// rowRestoredAt returns the row's last-restore time.
func (d *Device) rowRestoredAt(row uint32) float64 {
	if rs, ok := d.rows[row]; ok {
		return rs.restoredAt
	}
	return d.bulkTime
}

// wordAt returns the logical (written) value of a word, honouring overrides.
// The no-deviation fast path matters: right after a bulk pattern write —
// the state every profiling pass reads from — there are no per-row records,
// and the word comes straight out of the pattern descriptor with no map
// lookups at all. It is small enough to inline, so a word read costs its
// callers one call, to rowWord.
func (d *Device) wordAt(row uint32, word int) uint64 {
	var rs *rowState
	if len(d.rows) > 0 {
		rs = d.rows[row]
	}
	return d.rowWord(rs, row, word)
}

// rowWord returns the logical value of a word of row, whose deviation record
// is rs (nil when the row holds the bulk content): the word's override if it
// has one, else the bulk content.
func (d *Device) rowWord(rs *rowState, row uint32, word int) uint64 {
	if rs != nil && rs.overrides != nil { // a lookup in a nil map is still a runtime call
		if v, ok := rs.overrides[word]; ok {
			return v
		}
	}
	return d.bulkData.Word(row, word)
}

// bulkBit returns the logical value of a bit under the bulk content: the
// stored bit of every cell outside a deviant row. Rows are whole words, so
// the device-wide word index w splits into row w/WordsPerRow and word
// w%WordsPerRow.
func (d *Device) bulkBit(bit uint64) uint8 {
	w, wpr := bit/WordBits, uint64(d.geom.WordsPerRow)
	return uint8(d.bulkData.Word(uint32(w/wpr), int(w%wpr)) >> (bit % WordBits) & 1)
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
		code |= d.wordAt(row, p/WordBits) >> uint(p%WordBits) & 1
	}
	if p := pos + 1; p < rowBits {
		code |= (d.wordAt(row, p/WordBits) >> uint(p%WordBits) & 1) << 1
	}
	if a.Row > 0 {
		code |= (d.wordAt(row-1, a.Word) >> uint(a.Bit) & 1) << 2
	}
	if a.Row < d.geom.RowsPerBank-1 {
		code |= (d.wordAt(row+1, a.Word) >> uint(a.Bit) & 1) << 3
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
	written := uint8(d.wordAt(row, a.Word) >> uint(a.Bit) & 1)
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
	// After k whole auto-refresh cycles (k > 0), a failure at any of them
	// was restored as a stuck wrong value; the residual window since the
	// last refresh draws only when none stuck. Without them (k = 0) the
	// residual window is the whole elapsed time.
	code := d.neighborhoodCodeOf(c)
	k, resid := d.refreshCycles(elapsed)
	if k > 0 && d.src.Bernoulli(d.clippedFailProb(c, d.autoRef, k, written, code, now)) ||
		d.src.Bernoulli(d.clippedFailProb(c, resid, 0, written, code, now)) {
		d.markStuck(c, written^1)
		return written ^ 1
	}
	return written
}

// refreshCycles splits a window of elapsed seconds since a row's last
// restore into k whole auto-refresh cycles and the residual window after the
// last of them. k is 0 and resid is elapsed when refresh is off or the
// window fits in one cycle.
func (d *Device) refreshCycles(elapsed float64) (k, resid float64) {
	if d.autoRef > 0 && elapsed > d.autoRef {
		k = math.Floor(elapsed / d.autoRef)
		return k, elapsed - k*d.autoRef
	}
	return 0, elapsed
}

// clippedFailProb is the probability that one read of a cell storing
// written, with neighbourhood code code, returns the wrong value window
// seconds after its last restore at simulated time now: the normal failure
// CDF of Section 5.5, its mean scaled by Equation 1 and DPD, clipped to
// exactly 0 or 1 outside the zClip window. A cell storing its discharged
// value cannot fail. With k > 0 the window is one auto-refresh interval, and
// the result is the probability that a failure sticks at any of k such
// cycles, modelled as independent trials.
func (d *Device) clippedFailProb(c *weakCell, window, k float64, written uint8, code uint64, now float64) float64 {
	p := 0.0
	if written == c.chargedVal {
		scale := d.vend.RetentionScale(d.tempC)
		mu := c.muAt(now) * scale * c.dpdFactor(code)
		sigma := c.sigma * scale
		switch clipWindow(window, mu, sigma) {
		case dispFlip:
			p = 1
		case dispBand:
			p = stats.NormalCDF(window, mu, sigma)
		}
	}
	if k > 0 {
		return -math.Expm1(k * math.Log1p(-p))
	}
	return p
}

// disposition is a cell's classification at one elapsed window: skipped
// (failure probability exactly 0), flipped (exactly 1), or in the sampling
// band (anything else, and every VRT cell, whose retention mean is known
// only when it is sampled).
type disposition uint8

const (
	dispSkip disposition = iota
	dispFlip
	dispBand
)

// clipWindow places elapsed against the zClip window of a failure CDF with
// mean mu and standard deviation sigma.
func clipWindow(elapsed, mu, sigma float64) disposition {
	if elapsed < mu-zClip*sigma {
		return dispSkip
	}
	if elapsed > mu+zClip*sigma {
		return dispFlip
	}
	return dispBand
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

// WriteAll writes data to every row of the device at simulated time now.
// This is the bulk operation retention-test passes use; it erases all
// per-row deviations and stuck failures.
func (d *Device) WriteAll(data RowData, now float64) {
	// A rewrite of the identical pattern over undeviated content changes no
	// stored bit, so the per-cell neighbourhood-code caches keyed on
	// contentEpoch stay valid — the common steady-state profiling cadence
	// (same pattern every round) then re-reads cached codes instead of
	// recomputing them. The identity test needs ==, which only comparable
	// descriptor types support.
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
	restoredAt := d.rowRestoredAt(gr)
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
// activation samples every weak cell of the row in row order, as a whole-row
// read would, but only the requested word is assembled (the tests keep a
// whole-row ReadRow as its oracle).
func (d *Device) ReadWord(bank, row, word int, now float64) (uint64, error) {
	if err := d.checkRow(bank, row); err != nil {
		return 0, err
	}
	if word < 0 || word >= d.geom.WordsPerRow {
		return 0, fmt.Errorf("dram: word %d out of range", word)
	}
	gr := d.geom.GlobalRow(bank, row)
	restoredAt := d.rowRestoredAt(gr)
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
