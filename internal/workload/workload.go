// Package workload generates synthetic multiprogrammed workloads standing in
// for the paper's SPEC CPU2006 mixes (Section 7.2: 20 heterogeneous 4-core
// mixes built by randomly selecting 4 benchmarks). Each benchmark is a
// deterministic stream of last-level-cache misses characterized by its miss
// intensity (MPKI), row-buffer locality, write fraction, and compute-bound
// IPC — the knobs that determine how sensitive it is to DRAM refresh
// interference.
package workload

import (
	"fmt"

	"reaper/internal/rng"
)

// Spec characterizes one benchmark's memory behaviour.
type Spec struct {
	// Name labels the benchmark (SPEC-inspired).
	Name string
	// MPKI is last-level-cache misses per thousand instructions.
	MPKI float64
	// RowLocality is the probability that a miss targets the same DRAM
	// row as the core's previous miss (row-buffer friendliness).
	RowLocality float64
	// WriteFraction is the fraction of misses that are writebacks.
	WriteFraction float64
	// BaseIPC is the instructions per cycle the core sustains when every
	// miss hits an ideal zero-latency memory.
	BaseIPC float64
	// FootprintRows is the number of distinct DRAM rows the benchmark
	// touches.
	FootprintRows int
}

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	if s.MPKI < 0 || s.RowLocality < 0 || s.RowLocality > 1 ||
		s.WriteFraction < 0 || s.WriteFraction > 1 ||
		s.BaseIPC <= 0 || s.FootprintRows <= 0 {
		return fmt.Errorf("workload: invalid spec %+v", s)
	}
	return nil
}

// Benchmarks returns the benchmark suite: SPEC CPU2006-inspired
// characterizations spanning memory-bound (mcf, lbm, milc) to compute-bound
// (povray, gamess) behaviour. The MPKI and locality values follow published
// characterizations of the suite.
func Benchmarks() []Spec {
	return []Spec{
		{Name: "mcf", MPKI: 32, RowLocality: 0.20, WriteFraction: 0.25, BaseIPC: 1.2, FootprintRows: 1 << 16},
		{Name: "lbm", MPKI: 25, RowLocality: 0.55, WriteFraction: 0.45, BaseIPC: 1.5, FootprintRows: 1 << 15},
		{Name: "milc", MPKI: 18, RowLocality: 0.35, WriteFraction: 0.30, BaseIPC: 1.4, FootprintRows: 1 << 15},
		{Name: "libquantum", MPKI: 22, RowLocality: 0.75, WriteFraction: 0.20, BaseIPC: 1.6, FootprintRows: 1 << 14},
		{Name: "omnetpp", MPKI: 12, RowLocality: 0.25, WriteFraction: 0.30, BaseIPC: 1.3, FootprintRows: 1 << 15},
		{Name: "soplex", MPKI: 15, RowLocality: 0.40, WriteFraction: 0.25, BaseIPC: 1.4, FootprintRows: 1 << 15},
		{Name: "gcc", MPKI: 6, RowLocality: 0.45, WriteFraction: 0.30, BaseIPC: 1.8, FootprintRows: 1 << 14},
		{Name: "sphinx3", MPKI: 10, RowLocality: 0.50, WriteFraction: 0.15, BaseIPC: 1.6, FootprintRows: 1 << 14},
		{Name: "astar", MPKI: 5, RowLocality: 0.35, WriteFraction: 0.25, BaseIPC: 1.7, FootprintRows: 1 << 13},
		{Name: "bzip2", MPKI: 3, RowLocality: 0.55, WriteFraction: 0.30, BaseIPC: 2.0, FootprintRows: 1 << 13},
		{Name: "perlbench", MPKI: 1.5, RowLocality: 0.60, WriteFraction: 0.25, BaseIPC: 2.2, FootprintRows: 1 << 12},
		{Name: "gamess", MPKI: 0.5, RowLocality: 0.70, WriteFraction: 0.15, BaseIPC: 2.5, FootprintRows: 1 << 11},
		{Name: "povray", MPKI: 0.3, RowLocality: 0.70, WriteFraction: 0.10, BaseIPC: 2.6, FootprintRows: 1 << 11},
		{Name: "h264ref", MPKI: 2, RowLocality: 0.65, WriteFraction: 0.20, BaseIPC: 2.1, FootprintRows: 1 << 12},
	}
}

// Mixes builds n multiprogrammed mixes of perMix randomly selected
// benchmarks each (with replacement across mixes, without replacement
// within a mix when possible), reproducing the paper's methodology of 20
// random 4-benchmark mixes.
func Mixes(n, perMix int, seed uint64) [][]Spec {
	if n <= 0 || perMix <= 0 {
		return nil
	}
	suite := Benchmarks()
	src := rng.New(seed)
	mixes := make([][]Spec, n)
	perm := make([]int, len(suite))
	for i := range mixes {
		src.Perm(perm)
		mix := make([]Spec, perMix)
		for j := 0; j < perMix; j++ {
			mix[j] = suite[perm[j%len(suite)]]
		}
		mixes[i] = mix
	}
	return mixes
}

// Request is one memory request emitted by a Stream.
type Request struct {
	// InstrGap is the number of instructions executed since the previous
	// request.
	InstrGap int
	// Row is the DRAM row id targeted (dense in [0, FootprintRows)).
	Row uint64
	// Write marks writebacks.
	Write bool
}

// Stream deterministically generates a benchmark's miss stream.
type Stream struct {
	spec    Spec
	src     *rng.Source
	lastRow uint64
}

// NewStream builds a stream for the spec. Identical (spec, seed) pairs
// produce identical streams.
func NewStream(spec Spec, seed uint64) (*Stream, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s := &Stream{spec: spec, src: rng.New(seed)}
	s.lastRow = s.src.Uint64n(uint64(spec.FootprintRows))
	return s, nil
}

// Spec returns the stream's benchmark characterization.
func (s *Stream) Spec() Spec { return s.spec }

// Next returns the next memory request. For MPKI == 0 it returns gaps of
// one million instructions with no real locality pressure (a nearly
// memory-idle core).
func (s *Stream) Next() Request {
	meanGap := 1e6
	if s.spec.MPKI > 0 {
		meanGap = 1000 / s.spec.MPKI
	}
	gap := int(s.src.Exp(meanGap)) + 1
	row := s.lastRow
	if !s.src.Bernoulli(s.spec.RowLocality) {
		row = s.src.Uint64n(uint64(s.spec.FootprintRows))
	}
	s.lastRow = row
	return Request{
		InstrGap: gap,
		Row:      row,
		Write:    s.src.Bernoulli(s.spec.WriteFraction),
	}
}
