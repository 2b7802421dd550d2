// Package stats implements the statistical machinery the REAPER reproduction
// rests on: the normal CDF and lognormal fits (per-cell retention failure
// CDFs, Section 5.5 of the paper), log-space binomial tail probabilities (the
// ECC/UBER model, Section 6.2.2), power-law least-squares fits (the Figure 4
// steady-state failure accumulation fits of the form y = a*x^b), and the
// descriptive statistics used by the experiment harness (percentiles,
// box-plot summaries).
//
// Everything here is pure math on float64 with no hidden state, so it is
// trivially testable and reusable across the device model, the profiler, and
// the benchmark harness.
package stats

import (
	"errors"
	"math"
	"sort"
)

// NormalCDF returns P(X <= x) for X ~ Normal(mu, sigma).
// For sigma == 0 it degenerates to a step function at mu.
func NormalCDF(x, mu, sigma float64) float64 {
	if sigma <= 0 {
		if x < mu {
			return 0
		}
		return 1
	}
	return 0.5 * math.Erfc(-(x-mu)/(sigma*math.Sqrt2))
}

// LogBinomialPMF returns ln P(K == k) for K ~ Binomial(n, p).
// It is stable for the astronomically small probabilities the UBER model
// needs (e.g. P of a 3-bit error in a 72-bit word at RBER 1e-9).
func LogBinomialPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	if p <= 0 {
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	if p >= 1 {
		if k == n {
			return 0
		}
		return math.Inf(-1)
	}
	return logChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
}

// BinomialTail returns P(K > k) = sum_{i=k+1}^{n} P(K == i) for
// K ~ Binomial(n, p), computed in a numerically safe way for tiny p.
func BinomialTail(n, k int, p float64) float64 {
	if k >= n {
		return 0
	}
	if k < 0 {
		return 1
	}
	// For tiny p the first term dominates utterly; summing in linear space
	// from the largest term down is safe because terms decay geometrically
	// with ratio roughly n*p.
	sum := 0.0
	for i := k + 1; i <= n; i++ {
		term := math.Exp(LogBinomialPMF(n, i, p))
		sum += term
		if term < sum*1e-18 && i > k+3 {
			break
		}
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	lgN, _ := math.Lgamma(float64(n) + 1)
	lgK, _ := math.Lgamma(float64(k) + 1)
	lgNK, _ := math.Lgamma(float64(n-k) + 1)
	return lgN - lgK - lgNK
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator) of xs,
// or 0 if len(xs) < 2.
func StdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Percentile returns the p-th percentile (p in [0, 100]) of xs using linear
// interpolation between closest ranks. It sorts a copy; xs is not modified.
// The percentile of no data is NaN.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// BoxStats is the five-number summary plus mean used to render the paper's
// Figure 13 style box plots (25th-75th percentile boxes, whisker data range,
// median and mean lines).
type BoxStats struct {
	Min, P25, Median, P75, Max, Mean float64
}

// Box computes BoxStats for xs. The summary of no data is all NaN.
func Box(xs []float64) BoxStats {
	if len(xs) == 0 {
		nan := math.NaN()
		return BoxStats{Min: nan, P25: nan, Median: nan, P75: nan, Max: nan, Mean: nan}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return BoxStats{
		Min:    sorted[0],
		P25:    percentileSorted(sorted, 25),
		Median: percentileSorted(sorted, 50),
		P75:    percentileSorted(sorted, 75),
		Max:    sorted[len(sorted)-1],
		Mean:   Mean(xs),
	}
}

// PowerLawFit is the result of fitting y = A * x^B by least squares in
// log-log space, as the paper does for the Figure 4 steady-state failure
// accumulation rates.
type PowerLawFit struct {
	A, B float64
	// R2 is the coefficient of determination of the fit in log-log space.
	R2 float64
}

// FitPowerLaw fits y = A*x^B to the given points, ignoring any point with
// non-positive x or y (which cannot be represented in log space). It returns
// an error if fewer than two usable points remain.
func FitPowerLaw(xs, ys []float64) (PowerLawFit, error) {
	if len(xs) != len(ys) {
		return PowerLawFit{}, errors.New("stats: FitPowerLaw length mismatch")
	}
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	if len(lx) < 2 {
		return PowerLawFit{}, errors.New("stats: FitPowerLaw needs >= 2 positive points")
	}
	slope, intercept, r2 := linearFit(lx, ly)
	return PowerLawFit{A: math.Exp(intercept), B: slope, R2: r2}, nil
}

func linearFit(xs, ys []float64) (slope, intercept, r2 float64) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return 0, sy / n, 0
	}
	slope = (n*sxy - sx*sy) / denom
	intercept = (sy - slope*sx) / n
	// R^2
	my := sy / n
	var ssTot, ssRes float64
	for i := range xs {
		pred := slope*xs[i] + intercept
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - my) * (ys[i] - my)
	}
	if ssTot == 0 {
		return slope, intercept, 1
	}
	return slope, intercept, 1 - ssRes/ssTot
}

// FitLogNormal estimates the log-space (mu, sigma) of a lognormal
// distribution from samples, ignoring non-positive values.
func FitLogNormal(xs []float64) (mu, sigma float64) {
	var logs []float64
	for _, x := range xs {
		if x > 0 {
			logs = append(logs, math.Log(x))
		}
	}
	return Mean(logs), StdDev(logs)
}
