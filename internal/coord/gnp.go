// Package coord implements the Euclidean coordinate baselines the paper
// compares against: GNP [13] (landmark embedding by Simplex Downhill) and
// Vivaldi [5,6] (decentralized spring relaxation). Both assign each host a
// single position vector and estimate distance as the Euclidean norm —
// which is exactly why they cannot express asymmetric routing or triangle-
// inequality violations (§2.2).
package coord

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/optim"
	"github.com/ides-go/ides/internal/stats"
)

// GNPModel holds the fitted landmark coordinates of a GNP system.
type GNPModel struct {
	// Landmarks is m x d: one coordinate row per landmark.
	Landmarks *mat.Dense
}

// GNPOptions configures FitGNP.
type GNPOptions struct {
	// Dim is the embedding dimensionality. Default 8 (the paper's Fig. 6
	// setting).
	Dim int
	// Seed seeds the random initialization.
	Seed int64
	// Rounds is the number of block-coordinate passes over the landmarks;
	// each pass runs one Simplex Downhill per landmark in d dimensions.
	// Default 40.
	Rounds int
}

func (o GNPOptions) withDefaults() GNPOptions {
	if o.Dim <= 0 {
		o.Dim = 8
	}
	if o.Rounds <= 0 {
		o.Rounds = 40
	}
	return o
}

// gnpPairError is the squared relative error GNP minimizes (Eq. 3 family;
// the squared form is what the released GNP software optimizes).
func gnpPairError(d, est float64) float64 {
	if d <= 0 {
		return 0
	}
	r := (d - est) / d
	return r * r
}

// FitGNP embeds the m landmarks of the square distance matrix dl in
// Euclidean space by minimizing the summed squared relative error with
// Simplex Downhill, exactly in the spirit of the original GNP software: a
// random start followed by repeated per-landmark simplex polishing. It is
// orders of magnitude slower than the closed-form methods — that gap is
// Table 1's subject.
func FitGNP(dl *mat.Dense, opts GNPOptions) (*GNPModel, error) {
	m, n := dl.Dims()
	if m != n {
		panic(fmt.Sprintf("coord: GNP needs a square landmark matrix, got %dx%d", m, n))
	}
	opts = opts.withDefaults()
	if m < 2 {
		return nil, fmt.Errorf("gnp: need at least 2 landmarks, got %d", m)
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	// Scale initial coordinates to the data's magnitude.
	var meanD float64
	var cnt int
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i != j {
				meanD += dl.At(i, j)
				cnt++
			}
		}
	}
	if cnt > 0 {
		meanD /= float64(cnt)
	} else {
		meanD = 1
	}
	coords := mat.NewDense(m, opts.Dim)
	for i := range coords.Data() {
		coords.Data()[i] = (rng.Float64() - 0.5) * meanD
	}

	// Block-coordinate Simplex Downhill: optimize one landmark's position
	// against all others, round-robin.
	objFor := func(i int) func([]float64) float64 {
		return func(x []float64) float64 {
			var s float64
			for j := 0; j < m; j++ {
				if j == i {
					continue
				}
				e := euclid(x, coords.Row(j))
				s += gnpPairError(dl.At(i, j), e) + gnpPairError(dl.At(j, i), e)
			}
			return s
		}
	}
	for round := 0; round < opts.Rounds; round++ {
		var moved float64
		for i := 0; i < m; i++ {
			res := optim.NelderMead(objFor(i), coords.Row(i), optim.Options{
				MaxEvals: 300 * opts.Dim, // objective evaluations per simplex run
				InitStep: meanD * 0.05,
			})
			moved += euclid(res.X, coords.Row(i))
			coords.SetRow(i, res.X)
		}
		if moved < 1e-9*meanD {
			break
		}
	}
	return &GNPModel{Landmarks: coords}, nil
}

// Dim returns the embedding dimensionality.
func (g *GNPModel) Dim() int { return g.Landmarks.Cols() }

// PlaceHost computes coordinates for an ordinary host from its measured
// distances to the landmarks (GNP's second phase), again with Simplex
// Downhill in d dimensions.
func (g *GNPModel) PlaceHost(distToLandmarks []float64, seed int64) []float64 {
	m, d := g.Landmarks.Dims()
	if len(distToLandmarks) != m {
		panic(fmt.Sprintf("coord: distance vector length %d != landmark count %d", len(distToLandmarks), m))
	}
	obj := func(x []float64) float64 {
		var s float64
		for j := 0; j < m; j++ {
			s += gnpPairError(distToLandmarks[j], euclid(x, g.Landmarks.Row(j)))
		}
		return s
	}
	// Start from the centroid of the three nearest landmarks, a cheap and
	// robust initialization.
	start := make([]float64, d)
	type nl struct {
		dist float64
		idx  int
	}
	nearest := []nl{{math.Inf(1), 0}, {math.Inf(1), 0}, {math.Inf(1), 0}}
	for j := 0; j < m; j++ {
		dj := distToLandmarks[j]
		for k := range nearest {
			if dj < nearest[k].dist {
				copy(nearest[k+1:], nearest[k:])
				nearest[k] = nl{dj, j}
				break
			}
		}
	}
	var used int
	for _, c := range nearest {
		if !math.IsInf(c.dist, 1) {
			row := g.Landmarks.Row(c.idx)
			for k := range start {
				start[k] += row[k]
			}
			used++
		}
	}
	if used > 0 {
		for k := range start {
			start[k] /= float64(used)
		}
	}
	_ = seed // reserved for restart strategies; the deterministic start needs no RNG
	res := optim.NelderMead(obj, start, optim.Options{MaxEvals: 400 * d, InitStep: meanPositive(distToLandmarks) * 0.05})
	return res.X
}

// Estimate returns the Euclidean distance between two coordinate vectors.
func (g *GNPModel) Estimate(a, b []float64) float64 { return euclid(a, b) }

// ReconstructionErrors scores the landmark embedding on every off-diagonal
// landmark pair with the modified relative error (Eq. 10).
func (g *GNPModel) ReconstructionErrors(dl *mat.Dense) []float64 {
	m := dl.Rows()
	return stats.RelativeErrors(m, m, dl.At, func(i, j int) float64 { return euclid(g.Landmarks.Row(i), g.Landmarks.Row(j)) })
}

func euclid(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func meanPositive(xs []float64) float64 {
	var s float64
	var n int
	for _, x := range xs {
		if x > 0 {
			s += x
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return s / float64(n)
}
