package stats

import (
	"math"
	"testing"

	"reaper/internal/rng"
)

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (tol %v)", what, got, want, tol)
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	almost(t, NormalCDF(0, 0, 1), 0.5, 1e-12, "Phi(0)")
	almost(t, NormalCDF(1.959963985, 0, 1), 0.975, 1e-6, "Phi(1.96)")
	almost(t, NormalCDF(-1.959963985, 0, 1), 0.025, 1e-6, "Phi(-1.96)")
	almost(t, NormalCDF(3, 0, 1), 0.9986501, 1e-6, "Phi(3)")
	almost(t, NormalCDF(5, 2, 3), 0.8413447, 1e-6, "Phi((5-2)/3)")
}

func TestNormalCDFDegenerateSigma(t *testing.T) {
	if NormalCDF(1, 2, 0) != 0 {
		t.Error("CDF below mean with sigma=0 should be 0")
	}
	if NormalCDF(3, 2, 0) != 1 {
		t.Error("CDF above mean with sigma=0 should be 1")
	}
	if NormalCDF(2, 2, 0) != 1 {
		t.Error("CDF at mean with sigma=0 should be 1")
	}
}

func TestLogBinomialPMFMatchesDirect(t *testing.T) {
	// Compare against direct computation where it is feasible.
	direct := func(n, k int, p float64) float64 {
		c := 1.0
		for i := 0; i < k; i++ {
			c = c * float64(n-i) / float64(i+1)
		}
		return c * math.Pow(p, float64(k)) * math.Pow(1-p, float64(n-k))
	}
	for _, tc := range []struct {
		n, k int
		p    float64
	}{{10, 3, 0.2}, {72, 2, 0.001}, {64, 0, 0.5}, {64, 64, 0.5}, {20, 10, 0.5}} {
		got := math.Exp(LogBinomialPMF(tc.n, tc.k, tc.p))
		want := direct(tc.n, tc.k, tc.p)
		almost(t, got, want, want*1e-10+1e-300, "binomial pmf")
	}
}

func TestLogBinomialPMFEdges(t *testing.T) {
	if !math.IsInf(LogBinomialPMF(10, -1, 0.5), -1) {
		t.Error("k<0 should have log-prob -Inf")
	}
	if !math.IsInf(LogBinomialPMF(10, 11, 0.5), -1) {
		t.Error("k>n should have log-prob -Inf")
	}
	if LogBinomialPMF(10, 0, 0) != 0 {
		t.Error("P(K=0|p=0) should be 1")
	}
	if LogBinomialPMF(10, 10, 1) != 0 {
		t.Error("P(K=n|p=1) should be 1")
	}
}

func TestBinomialTailTinyP(t *testing.T) {
	// For tiny p, P(K > 1) ~ C(n,2) p^2.
	n := 72
	p := 1e-9
	want := float64(n*(n-1)/2) * p * p
	got := BinomialTail(n, 1, p)
	almost(t, got, want, want*1e-3, "binomial tail tiny p")
}

func TestBinomialTailBounds(t *testing.T) {
	if BinomialTail(10, 10, 0.5) != 0 {
		t.Error("P(K > n) must be 0")
	}
	if BinomialTail(10, -1, 0.5) != 1 {
		t.Error("P(K > -1) must be 1")
	}
	// Complement check: P(K>k) + P(K<=k) == 1 for moderate p.
	tail := BinomialTail(20, 5, 0.3)
	head := 0.0
	for i := 0; i <= 5; i++ {
		head += math.Exp(LogBinomialPMF(20, i, 0.3))
	}
	almost(t, tail+head, 1, 1e-9, "tail+head")
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	almost(t, Mean(xs), 5, 1e-12, "mean")
	almost(t, StdDev(xs), 2.138089935, 1e-6, "stddev")
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("degenerate Mean/StdDev should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	almost(t, Percentile(xs, 0), 1, 0, "p0")
	almost(t, Percentile(xs, 50), 3, 0, "p50")
	almost(t, Percentile(xs, 100), 5, 0, "p100")
	almost(t, Percentile(xs, 25), 2, 1e-12, "p25")
	almost(t, Percentile(xs, 10), 1.4, 1e-12, "p10 interpolated")
	// Must not modify input.
	unsorted := []float64{5, 1, 3}
	Percentile(unsorted, 50)
	if unsorted[0] != 5 {
		t.Error("Percentile modified its input")
	}
	if got := Percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("Percentile(nil) = %v, want NaN", got)
	}
}

func TestBox(t *testing.T) {
	b := Box([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if b.Min != 1 || b.Max != 10 {
		t.Errorf("box range wrong: %+v", b)
	}
	almost(t, b.Median, 5.5, 1e-12, "median")
	almost(t, b.Mean, 5.5, 1e-12, "mean")
	if !(b.P25 < b.Median && b.Median < b.P75) {
		t.Errorf("box quartiles out of order: %+v", b)
	}
	b = Box(nil)
	if !math.IsNaN(b.Median) || !math.IsNaN(b.Min) || !math.IsNaN(b.Mean) {
		t.Errorf("Box(nil) = %+v, want all NaN", b)
	}
}

func TestFitPowerLawExact(t *testing.T) {
	xs := []float64{0.064, 0.128, 0.512, 1.024, 2.048, 4.096}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3.5 * math.Pow(x, 2.25)
	}
	fit, err := FitPowerLaw(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, fit.A, 3.5, 1e-9, "A")
	almost(t, fit.B, 2.25, 1e-9, "B")
	almost(t, fit.R2, 1, 1e-9, "R2")
}

func TestFitPowerLawNoisy(t *testing.T) {
	src := rng.New(77)
	xs := make([]float64, 50)
	ys := make([]float64, 50)
	for i := range xs {
		xs[i] = 0.1 + float64(i)*0.1
		ys[i] = 2 * math.Pow(xs[i], 3) * math.Exp(0.05*src.Norm())
	}
	fit, err := FitPowerLaw(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, fit.B, 3, 0.1, "B noisy")
	if fit.R2 < 0.98 {
		t.Errorf("noisy fit R2 = %v, want > 0.98", fit.R2)
	}
}

func TestFitPowerLawRejectsBadInput(t *testing.T) {
	if _, err := FitPowerLaw([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch not rejected")
	}
	if _, err := FitPowerLaw([]float64{-1, 0}, []float64{1, 2}); err == nil {
		t.Error("all-nonpositive xs not rejected")
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7}
	slope, intercept, r2 := linearFit(xs, ys)
	almost(t, slope, 2, 1e-12, "slope")
	almost(t, intercept, 1, 1e-12, "intercept")
	almost(t, r2, 1, 1e-12, "r2")
}

func TestFitLogNormalRecovers(t *testing.T) {
	src := rng.New(6)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = src.LogNormal(-2.5, 0.6)
	}
	xs = append(xs, 0, -1) // must be ignored
	mu, sigma := FitLogNormal(xs)
	almost(t, mu, -2.5, 0.02, "fit log mu")
	almost(t, sigma, 0.6, 0.02, "fit log sigma")
}
