// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator.
//
// Every stochastic component of the DRAM model (weak-cell sampling, VRT state
// transitions, sense-amplifier noise, thermal sensor jitter, workload
// generation) draws from an rng.Source seeded explicitly by the caller, so
// that every experiment in this repository is reproducible bit-for-bit.
//
// The generator is xoshiro256**, which has a 256-bit state, passes BigCrush,
// and — unlike math/rand's global source — is cheaply *splittable*: Split
// derives an independent child stream from a parent stream and a 64-bit key.
// Splitting is what lets a device with millions of weak cells give each cell
// its own stable stream without storing per-cell generator state.
package rng

import "math"

// Source is a xoshiro256** pseudo-random number generator. The zero value is
// not usable; construct one with New or Split.
type Source struct {
	s0, s1, s2, s3 uint64
}

// splitMix64 is the recommended seeding generator for xoshiro: it decorrelates
// arbitrary user seeds (including small integers and related keys).
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source deterministically derived from seed.
func New(seed uint64) *Source {
	var s Source
	s.reseed(seed)
	return &s
}

func (s *Source) reseed(seed uint64) {
	x := seed
	s.s0 = splitMix64(&x)
	s.s1 = splitMix64(&x)
	s.s2 = splitMix64(&x)
	s.s3 = splitMix64(&x)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Split returns a new Source whose stream is independent of the parent for
// practical purposes. The child depends only on the parent's *current* state
// and the key, so calling Split with distinct keys from a freshly seeded
// parent yields a stable family of streams.
func (s *Source) Split(key uint64) *Source {
	// Mix the key with fresh output so children with different keys differ
	// even when the parent state is reused, and children of different
	// parents differ even for equal keys.
	h := s.Uint64()
	x := h ^ (key * 0x9e3779b97f4a7c15)
	var c Source
	c.reseed(splitMix64(&x))
	return &c
}

// Derive returns a Source that is a pure function of (seed, key): it does not
// advance any parent state. It is used to give immutable per-cell streams.
func Derive(seed, key uint64) *Source {
	x := seed ^ rotl(key, 32) ^ 0xd1b54a32d192ed03
	mixed := splitMix64(&x) ^ splitMix64(&x)
	return New(mixed)
}

// State returns the generator's full 256-bit internal state, for
// checkpointing. Restoring it with SetState resumes the stream
// at exactly the position it was captured, so a checkpointed campaign
// replays the identical draw sequence.
func (s *Source) State() [4]uint64 {
	return [4]uint64{s.s0, s.s1, s.s2, s.s3}
}

// SetState overwrites the generator's internal state with a value captured
// by State. The all-zero state is never produced by New, Split or Derive
// (splitMix64 of any seed is non-degenerate), so a zero state here indicates
// a corrupted checkpoint; it is replaced by a freshly seeded state to keep
// the generator usable rather than stuck emitting zeros.
func (s *Source) SetState(st [4]uint64) {
	if st == ([4]uint64{}) {
		s.reseed(0)
		return
	}
	s.s0, s.s1, s.s2, s.s3 = st[0], st[1], st[2], st[3]
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		//lint:ignore no-panic math/rand-style API precondition, kept for drop-in compatibility
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed uint64 in [0, n). It panics if
// n == 0. Uses Lemire's multiply-shift rejection method.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		//lint:ignore no-panic math/rand-style API precondition, kept for drop-in compatibility
		panic("rng: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return s.Uint64() & (n - 1)
	}
	// Rejection sampling on the top bits avoids modulo bias.
	max := math.MaxUint64 - math.MaxUint64%n
	for {
		v := s.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Norm returns a standard normally distributed float64 (mean 0, stddev 1)
// using the polar Box-Muller method.
func (s *Source) Norm() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// LogNormal returns a lognormally distributed value where the underlying
// normal has the given mean mu and standard deviation sigma (both in log
// space).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.Norm())
}

// Exp returns an exponentially distributed value with the given mean.
// It panics if mean <= 0.
func (s *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		//lint:ignore no-panic math/rand-style API precondition, kept for drop-in compatibility
		panic("rng: Exp with non-positive mean")
	}
	u := s.Float64()
	// Float64 is in [0,1); guard the log argument away from zero.
	return -mean * math.Log(1-u)
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Poisson returns a Poisson-distributed count with the given mean lambda.
// For large lambda it uses the normal approximation, which is accurate to
// well under a percent for lambda > 64 and keeps sampling O(1).
func (s *Source) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		v := lambda + math.Sqrt(lambda)*s.Norm() + 0.5
		if v < 0 {
			return 0
		}
		return int(v)
	}
	// Knuth's method for small lambda.
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= s.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Perm fills p with a uniformly random permutation of [0, len(p)).
func (s *Source) Perm(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}
