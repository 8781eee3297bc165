// Package stats provides the error metrics and distribution summaries used
// throughout the IDES evaluation: the paper's modified relative error
// (Eq. 10), empirical CDFs, percentiles, and aggregate summaries.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// relErrFloor guards the denominator of the modified relative error when
// both the true and the estimated distance are at or below zero. Distances
// are RTTs in milliseconds, so 1 microsecond is far below anything
// meaningful.
const relErrFloor = 1e-3

// RelativeError computes the paper's modified relative error (Eq. 10):
//
//	|d - est| / min(d, est)
//
// The min in the denominator penalizes underestimation. Non-positive
// estimates (possible under SVD models) make the denominator the true
// distance, keeping the metric finite while still charging a large penalty.
func RelativeError(d, est float64) float64 {
	den := math.Min(d, est)
	if den <= 0 {
		den = math.Max(d, relErrFloor)
		if den <= 0 {
			den = relErrFloor
		}
	}
	return math.Abs(d-est) / den
}

// RelativeErrors is Eq. 10 over a matrix: the modified relative error of
// every observed pair of a rows x cols distance matrix under an
// estimator, in row-major order. truth(i, j) is the measured distance,
// NaN where there is none, and est(i, j) the modelled one; the diagonal
// of a square matrix is not scored.
func RelativeErrors(rows, cols int, truth, est func(i, j int) float64) []float64 {
	errs := make([]float64, 0, rows*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rows == cols && i == j {
				continue
			}
			if d := truth(i, j); !math.IsNaN(d) {
				errs = append(errs, RelativeError(d, est(i, j)))
			}
		}
	}
	return errs
}

// CDF is an empirical cumulative distribution over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample. The input is copied.
func NewCDF(sample []float64) *CDF {
	s := make([]float64, len(sample))
	copy(s, sample)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// P returns the fraction of the sample that is <= x.
func (c *CDF) P(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, x)
	// Include equal elements.
	for i < len(c.sorted) && c.sorted[i] <= x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the p-quantile (0 <= p <= 1) by linear interpolation.
func (c *CDF) Quantile(p float64) float64 {
	n := len(c.sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return c.sorted[0]
	}
	if p >= 1 {
		return c.sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return c.sorted[lo]
	}
	frac := pos - float64(lo)
	return c.sorted[lo]*(1-frac) + c.sorted[hi]*frac
}

// Len returns the sample size.
func (c *CDF) Len() int { return len(c.sorted) }

// Points returns (x, P(X<=x)) pairs at each distinct sample value, suitable
// for plotting the CDF as a step curve.
func (c *CDF) Points() (xs, ps []float64) {
	n := len(c.sorted)
	for i := 0; i < n; i++ {
		if i+1 < n && c.sorted[i+1] == c.sorted[i] {
			continue
		}
		xs = append(xs, c.sorted[i])
		ps = append(ps, float64(i+1)/float64(n))
	}
	return xs, ps
}

// Median returns the median of the sample, or 0 for an empty sample.
func Median(sample []float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	return NewCDF(sample).Quantile(0.5)
}

// Percentile returns the p-th percentile (p in [0,100]), or 0 for an
// empty sample.
func Percentile(sample []float64, p float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	return NewCDF(sample).Quantile(p / 100)
}

// Mean returns the arithmetic mean, or NaN for an empty sample.
func Mean(sample []float64) float64 {
	if len(sample) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range sample {
		s += v
	}
	return s / float64(len(sample))
}

// Summary aggregates the statistics the evaluation reports for an error
// sample.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	P90    float64
	Max    float64
}

// Summarize computes a Summary of the sample.
func Summarize(sample []float64) Summary {
	if len(sample) == 0 {
		return Summary{}
	}
	c := NewCDF(sample)
	return Summary{
		N:      c.Len(),
		Mean:   Mean(sample),
		Median: c.Quantile(0.5),
		P90:    c.Quantile(0.9),
		Max:    c.sorted[len(c.sorted)-1],
	}
}

// String renders the summary in a fixed, human-readable layout.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4f median=%.4f p90=%.4f max=%.4f", s.N, s.Mean, s.Median, s.P90, s.Max)
}
