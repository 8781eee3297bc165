package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestRelativeErrorExact(t *testing.T) {
	if got := RelativeError(10, 10); got != 0 {
		t.Fatalf("exact estimate should have zero error, got %v", got)
	}
}

func TestRelativeErrorPenalizesUnderestimate(t *testing.T) {
	over := RelativeError(10, 12) // |10-12|/10 = 0.2
	under := RelativeError(10, 8) // |10-8|/8 = 0.25
	if math.Abs(over-0.2) > 1e-12 {
		t.Fatalf("overestimate error = %v want 0.2", over)
	}
	if math.Abs(under-0.25) > 1e-12 {
		t.Fatalf("underestimate error = %v want 0.25", under)
	}
	if under <= over {
		t.Fatal("underestimates must be penalized more (Eq. 10 min denominator)")
	}
}

func TestRelativeErrorNegativeEstimate(t *testing.T) {
	got := RelativeError(10, -5)
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("negative estimate should stay finite, got %v", got)
	}
	if got < 1 {
		t.Fatalf("negative estimate should be a large error, got %v", got)
	}
}

func TestRelativeErrorBothNonPositive(t *testing.T) {
	got := RelativeError(0, 0)
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("0/0 case should be finite, got %v", got)
	}
}

func TestCDFP(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct {
		x, want float64
	}{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, tc := range cases {
		if got := c.P(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("P(%v) = %v want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50})
	if got := c.Quantile(0); got != 10 {
		t.Fatalf("Q(0) = %v", got)
	}
	if got := c.Quantile(1); got != 50 {
		t.Fatalf("Q(1) = %v", got)
	}
	if got := c.Quantile(0.5); got != 30 {
		t.Fatalf("Q(0.5) = %v", got)
	}
	if got := c.Quantile(0.25); got != 20 {
		t.Fatalf("Q(0.25) = %v", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if got := c.P(1); got != 0 {
		t.Fatalf("empty P = %v", got)
	}
	if !math.IsNaN(c.Quantile(0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

func TestCDFDoesNotAliasInput(t *testing.T) {
	in := []float64{3, 1, 2}
	NewCDF(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("NewCDF must not sort the caller's slice")
	}
}

func TestCDFPoints(t *testing.T) {
	xs, ps := NewCDF([]float64{1, 1, 2}).Points()
	if len(xs) != 2 || xs[0] != 1 || xs[1] != 2 {
		t.Fatalf("xs = %v", xs)
	}
	if math.Abs(ps[0]-2.0/3) > 1e-12 || ps[1] != 1 {
		t.Fatalf("ps = %v", ps)
	}
}

func TestMedianPercentileMean(t *testing.T) {
	s := []float64{5, 1, 3}
	if got := Median(s); got != 3 {
		t.Fatalf("Median = %v", got)
	}
	if got := Percentile(s, 100); got != 5 {
		t.Fatalf("P100 = %v", got)
	}
	if got := Mean(s); got != 3 {
		t.Fatalf("Mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean of empty should be NaN")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if s.N != 10 || s.Max != 10 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.Mean-5.5) > 1e-12 || math.Abs(s.Median-5.5) > 1e-12 {
		t.Fatalf("summary %+v", s)
	}
	if s.String() == "" {
		t.Fatal("String should render")
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatal("empty summary should be zero value")
	}
}

// Property: the CDF is monotone nondecreasing and quantiles are monotone in p.
func TestPropCDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		sample := make([]float64, n)
		for i := range sample {
			sample[i] = rng.NormFloat64() * 100
		}
		c := NewCDF(sample)
		prev := -1.0
		for x := -300.0; x <= 300; x += 13 {
			p := c.P(x)
			if p < prev || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		prevQ := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.05 {
			q := c.Quantile(p)
			if q < prevQ {
				return false
			}
			prevQ = q
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Quantile and P are approximate inverses on the sample support.
func TestPropQuantileInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		sample := make([]float64, n)
		for i := range sample {
			sample[i] = rng.Float64() * 100
		}
		sort.Float64s(sample)
		c := NewCDF(sample)
		for _, v := range sample {
			// P(v) fraction of sample <= v must cover v's own position.
			p := c.P(v)
			if c.Quantile(p) < v-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptySampleSummariesAreZero(t *testing.T) {
	// Empty inputs must yield zeroed results, not NaN percentiles: these
	// feed JSON payloads and metric gauges where NaN does not round-trip.
	if got := Median(nil); got != 0 {
		t.Fatalf("Median(nil) = %v, want 0", got)
	}
	if got := Percentile(nil, 90); got != 0 {
		t.Fatalf("Percentile(nil, 90) = %v, want 0", got)
	}
	if s := Summarize(nil); s != (Summary{}) {
		t.Fatalf("Summarize(nil) = %+v, want zero", s)
	}
	// Mean keeps its documented NaN-on-empty contract: callers that want
	// the distinction between "no data" and "mean of zero" rely on it.
	if got := Mean(nil); !math.IsNaN(got) {
		t.Fatalf("Mean(nil) = %v, want NaN", got)
	}
}

func TestSingleSampleSummaries(t *testing.T) {
	if got := Median([]float64{7}); got != 7 {
		t.Fatalf("Median = %v, want 7", got)
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Fatalf("Percentile = %v, want 7", got)
	}
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Median != 7 || s.P90 != 7 || s.Max != 7 {
		t.Fatalf("Summarize = %+v", s)
	}
}
