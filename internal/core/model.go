// Package core implements the paper's primary contribution: the IDES model
// of network distances as a low-rank matrix product. A fitted Model holds
// an outgoing vector X_i and an incoming vector Y_i for each landmark;
// the distance from i to j is estimated as the dot product X_i·Y_j
// (Eq. 4). Ordinary hosts obtain their own vectors from a handful of
// measurements by closed-form least squares (Eqs. 13–14), or against any
// subset of nodes with precomputed vectors (Eqs. 15–16); a host joining an
// NMF model through SolveHostSubset is solved nonnegatively (§5.1).
package core

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"github.com/ides-go/ides/internal/factor"
	"github.com/ides-go/ides/internal/mat"
)

// Algorithm selects the factorization used to fit the landmark model.
type Algorithm int

const (
	// SVD is truncated singular value decomposition (Eqs. 5–6): globally
	// optimal in squared error, but may predict (slightly) negative
	// distances.
	SVD Algorithm = iota
	// NMF is nonnegative matrix factorization (Lee–Seung updates): local
	// optimum, but tolerates missing measurements. Hosts joining it through
	// SolveHostSubset estimate >= 0; SolveHost and PlaceAll are unconstrained.
	NMF
)

// String returns the algorithm's conventional name.
func (a Algorithm) String() string {
	switch a {
	case SVD:
		return "SVD"
	case NMF:
		return "NMF"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm parses an algorithm name in either spelling: a -alg
// flag value ("svd") or what String returns ("SVD").
func ParseAlgorithm(s string) (Algorithm, error) {
	switch strings.ToLower(s) {
	case "svd":
		return SVD, nil
	case "nmf":
		return NMF, nil
	default:
		return 0, fmt.Errorf("core: unknown algorithm %q (want svd or nmf)", s)
	}
}

// FitOptions configures Fit.
type FitOptions struct {
	// Dim is the model dimensionality d. The paper finds d ≈ 10 a good
	// complexity/accuracy tradeoff (§4.3.2); the default follows it.
	Dim int
	// Algorithm selects SVD (default) or NMF.
	Algorithm Algorithm
	// Seed steers randomized initialization (NMF) and the randomized
	// truncated SVD path for large matrices.
	Seed int64
	// Mask marks observed entries of the landmark matrix; requires NMF
	// (SVD cannot fit around holes — the very limitation §4.2 discusses).
	Mask *mat.Dense
}

// DefaultDim is the model dimensionality used when FitOptions.Dim is
// unset — the paper's d ≈ 10 complexity/accuracy tradeoff (§4.3.2).
const DefaultDim = 10

// DimFor returns the dimensionality a fit of an m x m landmark matrix
// uses: Dim, or DefaultDim when Dim is unset, capped at m. Fit goes by
// it, and internal/solve validates measurement density against it.
func (o FitOptions) DimFor(m int) int {
	dim := o.Dim
	if dim <= 0 {
		dim = DefaultDim
	}
	return min(dim, m)
}

// Model is a fitted IDES landmark model.
type Model struct {
	// X and Y are m x d: landmark outgoing and incoming vectors as rows.
	// Fill them before the first placement (SolveHost or PlaceAll) and
	// do not write into them from then on: that placement decomposes
	// them once for every later one. Assigning a new matrix to X or Y
	// is seen, and the next placement decomposes again.
	X, Y *mat.Dense
	// Algorithm records how the model was fitted and picks SolveHostSubset's solve.
	Algorithm Algorithm

	place atomic.Pointer[placeFactors] // set by the first placement
}

// ErrMaskRequiresNMF is returned when a masked fit is requested with SVD.
var ErrMaskRequiresNMF = errors.New("core: missing landmark measurements require the NMF algorithm")

// ErrNonSquare is returned when the landmark matrix is not square. (The
// m x n rectangular factorizations live in internal/factor; the IDES
// landmark model is defined over the m x m landmark pair matrix.)
var ErrNonSquare = errors.New("core: landmark matrix must be square")

// Fit factors the m x m landmark distance matrix into an IDES model.
func Fit(landmarks *mat.Dense, opts FitOptions) (*Model, error) {
	m, n := landmarks.Dims()
	if m != n {
		return nil, fmt.Errorf("%w, got %dx%d", ErrNonSquare, m, n)
	}
	opts.Dim = opts.DimFor(m)
	switch opts.Algorithm {
	case SVD:
		if opts.Mask != nil {
			return nil, ErrMaskRequiresNMF
		}
		f, err := factor.SVDFactor(landmarks, opts.Dim, opts.Seed)
		if err != nil {
			return nil, fmt.Errorf("core: fitting landmarks: %w", err)
		}
		return &Model{X: f.X, Y: f.Y, Algorithm: SVD}, nil
	case NMF:
		res, err := factor.NMF(landmarks, opts.Dim, factor.NMFOptions{
			Seed: opts.Seed,
			Mask: opts.Mask,
		})
		if err != nil {
			return nil, fmt.Errorf("core: fitting landmarks: %w", err)
		}
		return &Model{X: res.X, Y: res.Y, Algorithm: NMF}, nil
	default:
		return nil, fmt.Errorf("core: unknown algorithm %d", opts.Algorithm)
	}
}

// FitSVD is shorthand for Fit with the SVD algorithm.
func FitSVD(landmarks *mat.Dense, dim int, seed int64) (*Model, error) {
	return Fit(landmarks, FitOptions{Dim: dim, Algorithm: SVD, Seed: seed})
}

// FitNMF is shorthand for Fit with the NMF algorithm.
func FitNMF(landmarks *mat.Dense, dim int, seed int64) (*Model, error) {
	return Fit(landmarks, FitOptions{Dim: dim, Algorithm: NMF, Seed: seed})
}

// Dim returns the model dimensionality d.
func (m *Model) Dim() int { return m.X.Cols() }

// NumLandmarks returns the number of landmark nodes.
func (m *Model) NumLandmarks() int { return m.X.Rows() }

// EstimateLandmarks returns the modeled distance from landmark i to
// landmark j.
func (m *Model) EstimateLandmarks(i, j int) float64 {
	return mat.Dot(m.X.Row(i), m.Y.Row(j))
}

// Outgoing returns landmark i's outgoing vector (shared storage).
func (m *Model) Outgoing(i int) []float64 { return m.X.Row(i) }

// Incoming returns landmark i's incoming vector (shared storage).
func (m *Model) Incoming(i int) []float64 { return m.Y.Row(i) }

// Vectors returns landmark i's vector pair (shared storage). Models are
// immutable once fitted, so the pair stays valid across refits — it just
// describes the generation it was taken from.
func (m *Model) Vectors(i int) Vectors {
	return Vectors{Out: m.Outgoing(i), In: m.Incoming(i)}
}

// Vectors is a host's pair of IDES vectors. Estimate distance from a to b
// with Estimate(a, b) = a.Out · b.In.
type Vectors struct {
	Out []float64
	In  []float64
}

// Estimate returns the modeled distance from the host with vectors a to the
// host with vectors b (Eq. 4).
func Estimate(a, b Vectors) float64 { return mat.Dot(a.Out, b.In) }
