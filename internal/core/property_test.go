package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/ides-go/ides/internal/mat"
)

// randomDistanceMatrix draws a plausible nonnegative distance matrix with
// zero diagonal: a random low-rank nonnegative product plus noise.
func randomDistanceMatrix(rng *rand.Rand, n, rank int) *mat.Dense {
	x := mat.NewDense(n, rank)
	y := mat.NewDense(n, rank)
	for i := range x.Data() {
		x.Data()[i] = rng.Float64() * 5
	}
	for i := range y.Data() {
		y.Data()[i] = rng.Float64() * 5
	}
	d := mat.MulABT(x, y)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				d.Set(i, j, 0)
			} else {
				d.Set(i, j, d.At(i, j)*(1+0.05*rng.NormFloat64()))
				if d.At(i, j) < 0 {
					d.Set(i, j, 0.1)
				}
			}
		}
	}
	return d
}

// Property: a full-rank SVD fit reconstructs every landmark distance.
func TestPropFullRankFitIsExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		d := randomDistanceMatrix(rng, n, 2)
		m, err := FitSVD(d, n, seed)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(m.EstimateLandmarks(i, j)-d.At(i, j)) > 1e-6*(1+mat.MaxAbs(d)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: every host solve is checked, whatever its references: k from
// 1 to 3d, with duplicated rows, so k < d, k = d and rank-deficient
// reference sets are all drawn. Each side of the placement either
// interpolates — when k ≤ d references are resolved to within the cutoff
// (condition number below 1/placeRCond), every measured distance is
// reproduced exactly, which the §5.2 examples rely on — or agrees with
// placeOracle.
func TestPropHostSolveInterpolates(t *testing.T) {
	var interpolated, oracled int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(6)
		dim := 3 + rng.Intn(3)
		d := randomDistanceMatrix(rng, n, dim)
		m, err := FitSVD(d, dim, seed)
		if err != nil {
			return false
		}
		k := 1 + rng.Intn(3*dim)
		perm := rng.Perm(n)
		idx := make([]int, k)
		for i := range idx {
			idx[i] = perm[i%n]
		}
		if rng.Intn(3) == 0 {
			idx[rng.Intn(k)] = idx[rng.Intn(k)]
		}
		dout := make([]float64, k)
		din := make([]float64, k)
		for i := range idx {
			dout[i] = 1 + rng.Float64()*100
			din[i] = 1 + rng.Float64()*100
		}
		refOut := m.X.SelectRows(idx)
		refIn := m.Y.SelectRows(idx)
		v, err := SolveVectors(refOut, refIn, dout, din)
		if err != nil {
			return false
		}
		// side checks one half of the placement: u solved against ref
		// from the measurements meas.
		side := func(ref *mat.Dense, meas, u []float64) bool {
			if k > dim || condition(t, ref) >= 1/placeRCond {
				oracled++
				return agreesWithOracle(t, ref, meas, u)
			}
			interpolated++
			for i, want := range meas {
				if math.Abs(mat.Dot(ref.Row(i), u)-want) > 1e-9*want {
					return false
				}
			}
			return true
		}
		return side(refIn, dout, v.Out) && side(refOut, din, v.In)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if interpolated == 0 || oracled == 0 {
		t.Fatalf("draws covered %d interpolating and %d oracle solves, want both", interpolated, oracled)
	}
	t.Logf("%d interpolating solves, %d checked against the oracle", interpolated, oracled)
}

// condition is a's condition number over its min(rows, cols) singular
// values: +Inf when a is rank deficient.
func condition(t *testing.T, a *mat.Dense) float64 {
	t.Helper()
	dec, err := mat.SVD(a)
	if err != nil {
		t.Fatalf("SVD: %v", err)
	}
	return dec.S[0] / dec.S[len(dec.S)-1]
}

// Property: NNLS host vectors are always elementwise nonnegative, whatever
// the measurements: SolveVectorsNNLS against every landmark, and
// SolveHostSubset on the NMF model over a random subset of k >= d.
func TestPropNNLSVectorsNonnegative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6)
		dim := 2 + rng.Intn(3)
		d := randomDistanceMatrix(rng, n, dim)
		m, err := FitNMF(d, dim, seed)
		if err != nil {
			return false
		}
		dout := make([]float64, n)
		din := make([]float64, n)
		for k := range dout {
			dout[k] = rng.Float64() * 200
			din[k] = rng.Float64() * 200
		}
		v, err := SolveVectorsNNLS(m.X, m.Y, dout, din)
		if err != nil {
			return false
		}
		idx := rng.Perm(n)[:dim+rng.Intn(n-dim+1)]
		sdout := make([]float64, len(idx))
		sdin := make([]float64, len(idx))
		for k, l := range idx {
			sdout[k], sdin[k] = dout[l], din[l]
		}
		sv, err := m.SolveHostSubset(idx, sdout, sdin)
		if err != nil {
			return false
		}
		for _, x := range slices.Concat(v.Out, v.In, sv.Out, sv.In) {
			if x < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: batch placement equals per-host solves for arbitrary problems.
func TestPropPlaceAllMatchesSingles(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(6)
		dim := 2 + rng.Intn(3)
		h := 1 + rng.Intn(5)
		d := randomDistanceMatrix(rng, n, dim)
		m, err := FitSVD(d, dim, seed)
		if err != nil {
			return false
		}
		dout := mat.NewDense(h, n)
		din := mat.NewDense(h, n)
		for i := range dout.Data() {
			dout.Data()[i] = rng.Float64() * 100
			din.Data()[i] = rng.Float64() * 100
		}
		place, err := m.PlaceAll(dout, din)
		if err != nil {
			return false
		}
		for i := 0; i < h; i++ {
			single, err := m.SolveHost(dout.Row(i), din.Row(i))
			if err != nil {
				return false
			}
			v := place.Vectors(i)
			for k := range single.Out {
				if math.Abs(single.Out[k]-v.Out[k]) > 1e-7 || math.Abs(single.In[k]-v.In[k]) > 1e-7 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
