// Package faultinject perturbs a running station with the retention-failure
// hazards the paper's Section 2.3 identifies as the reasons profiling can
// never be a one-shot activity: variable retention time state flips
// (§2.3.1), data pattern dependence changes on rewrite (§2.3.2), ambient
// temperature excursions (Equation 1), and the slow arrival of new weak
// cells over a device's lifetime (Figure 4). It also models two systems
// hazards of online profiling itself: profiling-round aborts (the host
// reclaims the memory controller mid-round) and mitigation capacity
// exhaustion (ArchShield's spare segment filling up).
//
// Everything is driven by splittable RNG streams derived from one scenario
// seed — one independent stream per fault channel — so a campaign replays
// bit-for-bit for a fixed seed regardless of what other code does with the
// station's own RNG, and regardless of worker count when many chips soak
// in parallel (each chip owns its injector).
package faultinject

import (
	"fmt"
	"math"

	"reaper/internal/dram"
	"reaper/internal/memctrl"
	"reaper/internal/mitigate"
	"reaper/internal/rng"
	"reaper/internal/telemetry"
	"reaper/internal/thermal"
)

// Scenario configures the fault channels. A zero mean/rate disables the
// channel. All times are in hours of simulated clock.
type Scenario struct {
	// Seed drives every channel's stream (split per channel).
	Seed uint64 `json:"seed"`

	// VRT escape bursts (§2.3.1): every ~VRTBurstMeanHours, force up to
	// VRTBurstCells VRT cells into their low-retention state, modelling a
	// cluster of cells whose short state escaped the last profile.
	VRTBurstMeanHours float64 `json:"vrt_burst_mean_hours"`
	VRTBurstCells     int     `json:"vrt_burst_cells"`

	// DPD flips (§2.3.2): every ~DPDFlipMeanHours, rescramble the
	// coupling signature of up to DPDFlipCells cells, so data written
	// after the flip stresses them differently than profiling did.
	DPDFlipMeanHours float64 `json:"dpd_flip_mean_hours"`
	DPDFlipCells     int     `json:"dpd_flip_cells"`

	// Ambient temperature excursions (Equation 1): every
	// ~TempExcursionMeanHours, step the ambient by TempExcursionPeakC and
	// let it decay back with time constant TempExcursionTauSeconds.
	TempExcursionMeanHours  float64 `json:"temp_excursion_mean_hours"`
	TempExcursionPeakC      float64 `json:"temp_excursion_peak_c"`
	TempExcursionTauSeconds float64 `json:"temp_excursion_tau_seconds"`

	// New weak-cell arrival (Figure 4): a Poisson process at
	// WeakArrivalPerHour cells/hour. ArrivalMaxMuFactor caps each
	// arrival's retention time at that multiple of the target interval
	// (so arrivals actually matter at the operating point).
	// TargetedArrivalFraction of arrivals land inside the mitigation
	// mechanism's reserved spare segment, where remapping can never
	// protect them — the paper's mitigation mechanisms still rely on ECC
	// for exactly this residue.
	WeakArrivalPerHour      float64 `json:"weak_arrival_per_hour"`
	ArrivalMaxMuFactor      float64 `json:"arrival_max_mu_factor"`
	TargetedArrivalFraction float64 `json:"targeted_arrival_fraction"`

	// VRTLowMuFactor caps the low-state retention of burst-forced cells
	// at this multiple of the target interval.
	VRTLowMuFactor float64 `json:"vrt_low_mu_factor"`

	// Round aborts: each profiling round is independently aborted with
	// RoundAbortProb (wire RoundGate into firmware.Config.PreRound).
	RoundAbortProb float64 `json:"round_abort_prob"`

	// Spare drain: every ~SpareDrainMeanHours, consume SpareDrainWords
	// of the attached ArchShield's spare segment (competing consumers of
	// mitigation capacity), eventually exhausting it.
	SpareDrainMeanHours float64 `json:"spare_drain_mean_hours"`
	SpareDrainWords     uint64  `json:"spare_drain_words"`
}

// DefaultScenario is the standard soak scenario: all of Section 2.3's
// hazards on, at rates that stress a multi-week soak without instantly
// overwhelming SECDED.
func DefaultScenario(seed uint64) Scenario {
	return Scenario{
		Seed:                    seed,
		VRTBurstMeanHours:       6,
		VRTBurstCells:           4,
		DPDFlipMeanHours:        8,
		DPDFlipCells:            6,
		TempExcursionMeanHours:  12,
		TempExcursionPeakC:      8,
		TempExcursionTauSeconds: 1800,
		WeakArrivalPerHour:      0.75,
		ArrivalMaxMuFactor:      0.6,
		TargetedArrivalFraction: 0.4,
		VRTLowMuFactor:          1,
		RoundAbortProb:          0.1,
	}
}

// Validate rejects malformed scenarios.
func (sc Scenario) Validate() error {
	if sc.VRTBurstMeanHours < 0 || sc.DPDFlipMeanHours < 0 ||
		sc.TempExcursionMeanHours < 0 || sc.WeakArrivalPerHour < 0 ||
		sc.SpareDrainMeanHours < 0 {
		return fmt.Errorf("faultinject: negative channel rate")
	}
	if sc.RoundAbortProb < 0 || sc.RoundAbortProb >= 1 {
		return fmt.Errorf("faultinject: round abort probability %v out of [0,1)", sc.RoundAbortProb)
	}
	if sc.TargetedArrivalFraction < 0 || sc.TargetedArrivalFraction > 1 {
		return fmt.Errorf("faultinject: targeted arrival fraction %v out of [0,1]", sc.TargetedArrivalFraction)
	}
	if sc.TempExcursionMeanHours > 0 && sc.TempExcursionTauSeconds <= 0 {
		return fmt.Errorf("faultinject: excursions need a positive tau")
	}
	return nil
}

// Event is one injected fault, stamped with the station clock.
type Event struct {
	ClockHours float64 `json:"clock_hours"`
	Kind       string  `json:"kind"`
	Detail     string  `json:"detail"`
	Cells      int     `json:"cells,omitempty"`
}

// Fault channel indices; each owns an independent RNG stream so adding or
// disabling one channel never shifts another's draw sequence.
const (
	chVRTBurst = iota
	chDPDFlip
	chExcursion
	chArrival
	chSpareDrain
	chAbort
	numChannels
)

var channelNames = [numChannels]string{
	"vrt-burst", "dpd-flip", "temp-excursion", "weak-arrival", "spare-drain", "round-abort",
}

// Injector drives a scenario against one station. Not safe for concurrent
// use; in a fleet soak each chip owns its own injector.
type Injector struct {
	st     *memctrl.Station //lint:serialized-elsewhere station wiring; the stack is rebuilt by construction before RestoreState
	sc     Scenario
	target float64 //lint:serialized-elsewhere pure function of the Scenario; recomputed by construction

	streams [numChannels]*rng.Source
	nextAt  [numChannels]float64 // station clock of next fire; +Inf = off

	shield      *mitigate.ArchShield //lint:serialized-elsewhere component wiring; re-attached by construction before RestoreState
	baseAmbient float64
	excursion   *thermal.Excursion
	excNextAt   float64 // next decay update for the active excursion

	events []Event
	counts map[string]int

	// Telemetry (see Instrument); nil on an uninstrumented injector.
	tele       *telemetry.Registry //lint:serialized-elsewhere telemetry wiring; re-attached by Instrument, nil-safe when absent
	tracer     *telemetry.Tracer   //lint:serialized-elsewhere telemetry wiring; the tracer checkpoints through its own codec
	teleLabels []telemetry.Label   //lint:serialized-elsewhere telemetry wiring; re-attached by Instrument, nil-safe when absent
}

// New builds an injector for a station operating at targetInterval. The
// station must be chamber-less (injected excursions set the ambient
// directly; a PID chamber would fight them on its own timescale).
func New(st *memctrl.Station, targetInterval float64, sc Scenario) (*Injector, error) {
	if st == nil {
		return nil, fmt.Errorf("faultinject: nil station")
	}
	if targetInterval <= 0 {
		return nil, fmt.Errorf("faultinject: non-positive target interval")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if sc.ArrivalMaxMuFactor == 0 {
		sc.ArrivalMaxMuFactor = 0.6
	}
	if sc.VRTLowMuFactor == 0 {
		sc.VRTLowMuFactor = 1
	}
	root := rng.New(sc.Seed)
	inj := &Injector{
		st:          st,
		sc:          sc,
		target:      targetInterval,
		baseAmbient: st.Ambient(),
		excNextAt:   math.Inf(1),
		counts:      map[string]int{},
	}
	for i := range inj.streams {
		inj.streams[i] = root.Split(uint64(i) + 1)
	}
	now := st.Clock()
	inj.nextAt[chVRTBurst] = inj.schedule(chVRTBurst, now, sc.VRTBurstMeanHours*3600)
	inj.nextAt[chDPDFlip] = inj.schedule(chDPDFlip, now, sc.DPDFlipMeanHours*3600)
	inj.nextAt[chExcursion] = inj.schedule(chExcursion, now, sc.TempExcursionMeanHours*3600)
	inj.nextAt[chSpareDrain] = inj.schedule(chSpareDrain, now, sc.SpareDrainMeanHours*3600)
	if sc.WeakArrivalPerHour > 0 {
		inj.nextAt[chArrival] = inj.schedule(chArrival, now, 3600/sc.WeakArrivalPerHour)
	} else {
		inj.nextAt[chArrival] = math.Inf(1)
	}
	inj.nextAt[chAbort] = math.Inf(1) // fired by RoundGate, not by the clock
	return inj, nil
}

// schedule draws the channel's next fire time, or +Inf when disabled.
func (inj *Injector) schedule(ch int, now, meanSeconds float64) float64 {
	if meanSeconds <= 0 {
		return math.Inf(1)
	}
	return now + inj.streams[ch].Exp(meanSeconds)
}

// AttachShield connects the mitigation mechanism so targeted arrivals can
// land in its reserved segment and the spare-drain channel can consume it.
func (inj *Injector) AttachShield(sh *mitigate.ArchShield) { inj.shield = sh }

// Instrument attaches a telemetry registry and (optionally) a tracer: every
// injected fault increments faultinject_events_total{channel} (and
// faultinject_cells_injected_total{channel} when cells were touched) and is
// mirrored into the trace ring as a "fault-injection" event. Counters are
// commutative across injectors sharing a registry; a tracer is single-owner
// (one per injector). The labels are stamped on trace events only — e.g.
// chip=3 in a fleet soak.
func (inj *Injector) Instrument(reg *telemetry.Registry, tracer *telemetry.Tracer, labels ...telemetry.Label) {
	inj.tele = reg
	inj.tracer = tracer
	inj.teleLabels = labels
}

// Events returns a copy of the injected-fault log.
func (inj *Injector) Events() []Event {
	out := make([]Event, len(inj.events))
	copy(out, inj.events)
	return out
}

// Counts returns per-kind fault counts.
func (inj *Injector) Counts() map[string]int {
	out := make(map[string]int, len(inj.counts))
	for k, v := range inj.counts {
		out[k] = v
	}
	return out
}

func (inj *Injector) log(kind, detail string, cells int) {
	inj.counts[kind]++
	inj.events = append(inj.events, Event{
		ClockHours: inj.st.Clock() / 3600,
		Kind:       kind,
		Detail:     detail,
		Cells:      cells,
	})
	inj.tele.Counter("faultinject_events_total", telemetry.L("channel", kind)).Inc()
	if cells > 0 {
		inj.tele.Counter("faultinject_cells_injected_total", telemetry.L("channel", kind)).Add(int64(cells))
	}
	inj.tracer.Emit(inj.st.Clock(), "fault-injection", kind+": "+detail, inj.teleLabels...)
}

// RoundGate returns a hook for firmware.Config.PreRound: each call aborts
// the round with probability RoundAbortProb, drawing from the abort
// channel's own stream.
func (inj *Injector) RoundGate() func() error {
	return func() error {
		if inj.streams[chAbort].Bernoulli(inj.sc.RoundAbortProb) {
			inj.log(channelNames[chAbort], "profiling pass preempted", 0)
			return fmt.Errorf("faultinject: profiling round aborted")
		}
		return nil
	}
}

// RunUntil advances the station clock to the absolute time until.
func (inj *Injector) RunUntil(until float64) {
	for {
		now := inj.st.Clock()
		if now >= until {
			return
		}
		ch, at := inj.nextFire()
		if at > until {
			inj.st.Wait(until - now)
			return
		}
		if at > now {
			inj.st.Wait(at - now)
		}
		inj.fire(ch)
	}
}

// nextFire returns the earliest pending fire (channel, clock time); the
// excursion decay updater competes as a pseudo-channel after the real ones.
func (inj *Injector) nextFire() (int, float64) {
	best, at := -1, math.Inf(1)
	for ch, t := range inj.nextAt {
		if t < at {
			best, at = ch, t
		}
	}
	if inj.excNextAt < at {
		return numChannels, inj.excNextAt
	}
	return best, at
}

func (inj *Injector) fire(ch int) {
	now := inj.st.Clock()
	dev := inj.st.Device()
	switch ch {
	case chVRTBurst:
		bits := dev.ForceVRTLowBurst(inj.streams[ch], inj.sc.VRTBurstCells,
			inj.sc.VRTLowMuFactor*inj.target, now)
		inj.log(channelNames[ch], fmt.Sprintf("%d VRT cells forced low", len(bits)), len(bits))
		inj.nextAt[ch] = inj.schedule(ch, now, inj.sc.VRTBurstMeanHours*3600)
	case chDPDFlip:
		bits := dev.RescrambleDPD(inj.streams[ch], inj.sc.DPDFlipCells)
		inj.log(channelNames[ch], fmt.Sprintf("%d coupling signatures rescrambled", len(bits)), len(bits))
		inj.nextAt[ch] = inj.schedule(ch, now, inj.sc.DPDFlipMeanHours*3600)
	case chExcursion:
		inj.excursion = &thermal.Excursion{
			StartSeconds: now,
			PeakDeltaC:   inj.sc.TempExcursionPeakC,
			TauSeconds:   inj.sc.TempExcursionTauSeconds,
		}
		inj.st.SetAmbient(inj.baseAmbient + inj.excursion.DeltaAt(now))
		inj.excNextAt = now + inj.sc.TempExcursionTauSeconds/4
		inj.log(channelNames[ch], fmt.Sprintf("+%.1f °C step, tau %.0f s",
			inj.sc.TempExcursionPeakC, inj.sc.TempExcursionTauSeconds), 0)
		inj.nextAt[ch] = inj.schedule(ch, now, inj.sc.TempExcursionMeanHours*3600)
	case chArrival:
		inj.fireArrival(now)
		inj.nextAt[ch] = inj.schedule(ch, now, 3600/inj.sc.WeakArrivalPerHour)
	case chSpareDrain:
		if inj.shield != nil {
			got := inj.shield.ConsumeSpares(inj.sc.SpareDrainWords)
			inj.log(channelNames[ch], fmt.Sprintf("%d spare words consumed, %d left",
				got, inj.shield.SpareWordsLeft()), 0)
		}
		inj.nextAt[ch] = inj.schedule(ch, now, inj.sc.SpareDrainMeanHours*3600)
	case numChannels: // excursion decay update
		exc := inj.excursion
		if exc == nil {
			inj.excNextAt = math.Inf(1)
			return
		}
		if exc.Expired(now, 0.1) {
			inj.st.SetAmbient(inj.baseAmbient)
			inj.excursion = nil
			inj.excNextAt = math.Inf(1)
			inj.log("temp-restore", fmt.Sprintf("ambient back to %.1f °C", inj.baseAmbient), 0)
			return
		}
		inj.st.SetAmbient(inj.baseAmbient + exc.DeltaAt(now))
		inj.excNextAt = now + exc.TauSeconds/4
	}
}

// fireArrival injects one new weak cell: uniformly random, or (for the
// targeted fraction, when a shield is attached) inside the reserved spare
// segment where remapping cannot protect it.
func (inj *Injector) fireArrival(now float64) {
	dev := inj.st.Device()
	src := inj.streams[chArrival]
	maxMu := inj.sc.ArrivalMaxMuFactor * inj.target
	targeted := inj.shield != nil && src.Bernoulli(inj.sc.TargetedArrivalFraction)
	if !targeted {
		bits := dev.InjectWeakCells(src, 1, maxMu, now)
		inj.log(channelNames[chArrival], fmt.Sprintf("random arrival at %v", bits), len(bits))
		return
	}
	g := dev.Geometry()
	var wa mitigate.WordAddr
	if targets := inj.shield.RemapTargets(); len(targets) > 0 {
		// Aim at a spare word that holds remapped live data — the words
		// Install can never protect again.
		wa = targets[src.Intn(len(targets))]
	} else {
		for attempt := 0; attempt < 64; attempt++ {
			wa = mitigate.WordAddr{
				Bank: src.Intn(g.Banks),
				Row:  src.Intn(g.RowsPerBank),
				Word: src.Intn(g.WordsPerRow),
			}
			if inj.shield.InReservedSegment(wa) {
				break
			}
		}
	}
	bit := g.BitIndex(dram.Addr{Bank: wa.Bank, Row: wa.Row, Word: wa.Word, Bit: src.Intn(64)})
	if dev.InjectWeakCellAt(src, bit, maxMu, now) {
		inj.log(channelNames[chArrival],
			fmt.Sprintf("targeted arrival in spare segment at bit %d", bit), 1)
	} else {
		inj.log(channelNames[chArrival], "targeted arrival collided with existing weak cell", 0)
	}
}
