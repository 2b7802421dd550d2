package rng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs in 100 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			t.Fatalf("split children matched at step %d", i)
		}
	}
}

func TestDeriveIsPure(t *testing.T) {
	a := Derive(99, 12345)
	b := Derive(99, 12345)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Derive is not a pure function of (seed, key)")
		}
	}
	c := Derive(99, 12346)
	a2 := Derive(99, 12345)
	diff := false
	for i := 0; i < 100; i++ {
		if a2.Uint64() != c.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("Derive with different keys produced identical streams")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 100000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnUniform(t *testing.T) {
	s := New(5)
	const buckets = 10
	const n = 100000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[s.Intn(buckets)]++
	}
	for b, c := range counts {
		expect := float64(n) / buckets
		if math.Abs(float64(c)-expect) > 5*math.Sqrt(expect) {
			t.Errorf("bucket %d count %d deviates too far from %v", b, c, expect)
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	s := New(6)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := s.Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNormMoments(t *testing.T) {
	s := New(8)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("Norm mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("Norm variance = %v, want ~1", variance)
	}
}

func TestLogNormalMedian(t *testing.T) {
	s := New(9)
	const n = 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = s.LogNormal(math.Log(0.1), 0.5)
	}
	// Median of lognormal(mu, sigma) is exp(mu).
	below := 0
	for _, v := range vals {
		if v < 0.1 {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("lognormal median fraction below exp(mu) = %v, want ~0.5", frac)
	}
}

func TestExpMean(t *testing.T) {
	s := New(10)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Exp(3.5)
		if v < 0 {
			t.Fatalf("Exp returned negative value %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-3.5) > 0.05 {
		t.Errorf("Exp mean = %v, want ~3.5", mean)
	}
}

func TestBernoulliEdge(t *testing.T) {
	s := New(11)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	s := New(12)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate = %v", rate)
	}
}

func TestPoissonMean(t *testing.T) {
	s := New(13)
	for _, lambda := range []float64{0.5, 3, 20, 500} {
		const n = 50000
		sum := 0
		for i := 0; i < n; i++ {
			sum += s.Poisson(lambda)
		}
		mean := float64(sum) / n
		tol := 4 * math.Sqrt(lambda/float64(n)) * 3
		if tol < 0.05 {
			tol = 0.05
		}
		if math.Abs(mean-lambda) > tol+lambda*0.02 {
			t.Errorf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
}

func TestPoissonZero(t *testing.T) {
	s := New(14)
	if s.Poisson(0) != 0 || s.Poisson(-1) != 0 {
		t.Fatal("Poisson of non-positive lambda must be 0")
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(15)
	p := make([]int, 100)
	s.Perm(p)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

// TestSplitSiblingsUncorrelated checks bit-level decorrelation between
// sibling child streams split from one parent: across many draws the
// fraction of agreeing bits must sit near 1/2, as it would for truly
// independent streams. A bias here would couple per-cell retention draws
// across the millions of cells that share a parent stream.
func TestSplitSiblingsUncorrelated(t *testing.T) {
	parent := New(2024)
	children := make([]*Source, 8)
	for k := range children {
		children[k] = parent.Split(uint64(k))
	}
	const draws = 4096
	for a := 0; a < len(children); a++ {
		for b := a + 1; b < len(children); b++ {
			ca, cb := *children[a], *children[b] // copy state: re-walk each pair
			agree := 0
			for i := 0; i < draws; i++ {
				x := ca.Uint64() ^ cb.Uint64()
				agree += 64 - bits.OnesCount64(x)
			}
			frac := float64(agree) / float64(64*draws)
			// 64*4096 fair coin flips: stddev ~0.001, so ±0.01 is >9 sigma.
			if math.Abs(frac-0.5) > 0.01 {
				t.Errorf("children %d,%d agree on %.4f of bits, want ~0.5", a, b, frac)
			}
		}
	}
}

// TestResplitStability checks that the split family is stable: a parent
// reconstructed from the same seed and advanced identically yields
// bit-identical children for the same key. Device reconstruction (e.g.
// ChipRef.Materialize rebuilding an evicted fleet chip, or a tradeoff grid
// building one station per worker) depends on this.
func TestResplitStability(t *testing.T) {
	mk := func() *Source {
		p := New(7)
		p.Uint64() // advance: children depend on the parent's current state
		return p
	}
	c1 := mk().Split(99)
	c2 := mk().Split(99)
	for i := 0; i < 256; i++ {
		if a, b := c1.Uint64(), c2.Uint64(); a != b {
			t.Fatalf("re-split child diverged at draw %d: %#x != %#x", i, a, b)
		}
	}
	// ... and the child must also differ from a differently-advanced parent's
	// child with the same key (state sensitivity, not key sensitivity alone).
	p3 := New(7)
	p3.Uint64()
	p3.Uint64()
	c3 := p3.Split(99)
	c4 := mk().Split(99)
	same := 0
	for i := 0; i < 100; i++ {
		if c3.Uint64() == c4.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("children of differently-advanced parents matched %d/100 draws", same)
	}
}

// TestGoldenDraws pins the first outputs of the generator family. Every
// pinned experiment snapshot in this repository (determinism, soak,
// seed-stability) transitively depends on these exact sequences; an
// accidental change to xoshiro256**, splitMix64 seeding, Split, or Derive
// must fail here, loudly, before it silently invalidates those snapshots.
func TestGoldenDraws(t *testing.T) {
	check := func(name string, s *Source, want []uint64) {
		t.Helper()
		for i, w := range want {
			if got := s.Uint64(); got != w {
				t.Errorf("%s draw %d = %#x, want %#x", name, i, got, w)
			}
		}
	}
	check("New(42)", New(42), []uint64{
		0x15780b2e0c2ec716, 0x6104d9866d113a7e, 0xae17533239e499a1, 0xecb8ad4703b360a1,
		0xfde6dc7fe2ec5e64, 0xc50da53101795238, 0xb82154855a65ddb2, 0xd99a2743ebe60087,
	})
	check("New(7).Split(3)", New(7).Split(3), []uint64{
		0x74f8018564319547, 0x823651eedb9a8d2f, 0x5eaaa624784c7c5, 0x551b7be2e2bf2c71,
	})
	check("Derive(99, 12345)", Derive(99, 12345), []uint64{
		0x6fe479c0d3360b14, 0x16a678be4bcbc442, 0x65b0e9a17a6d417e, 0x3266a1f989171c9,
	})
	f := New(1)
	wantF := []float64{
		0.70292183315885048, 0.52043661993885693, 0.5741057000197225, 0.39132860204190445,
	}
	for i, w := range wantF {
		if got := f.Float64(); got != w {
			t.Errorf("New(1) Float64 draw %d = %.17g, want %.17g", i, got, w)
		}
	}
}
