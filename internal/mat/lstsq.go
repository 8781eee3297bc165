package mat

import (
	"fmt"
	"math"
)

// LeastSquaresFactor solves least-squares problems A·x ≈ b for one A and
// any number of right-hand sides b. The solution is the x minimizing
// ||A*x - b|| over the well-resolved part of A's spectrum, for A of any
// shape. With A = U·diag(S)·Vᵀ it is
//
//	x = V · φ(S) · Uᵀ · b,  φ(s) = 1/s for s ≥ c,  φ(s) = s/c² below,
//
// where c = rcond·max(S). Above the cutoff this is the pseudo-inverse, so a
// system whose condition number is below 1/rcond is solved exactly (the
// minimum-norm solution when it is underdetermined). Below the cutoff φ
// falls linearly to zero instead of growing as 1/s, so a direction that A
// barely resolves cannot fling the solution off. At ExactRCond(A) only
// singular values at rounding level are filtered.
//
// The factor holds what depends on A alone, its SVD with φ applied to the
// spectrum, so each solve is two small products. It is read-only once
// built: any number of goroutines may solve against it.
type LeastSquaresFactor struct {
	ut  *Dense    // Uᵀ, r x m
	v   *Dense    // V, n x r
	phi []float64 // φ(S), r
}

// FactorLeastSquares decomposes the m x n matrix a for least-squares
// solves at the cutoff rcond.
func FactorLeastSquares(a *Dense, rcond float64) (*LeastSquaresFactor, error) {
	dec, err := SVD(a)
	if err != nil {
		return nil, fmt.Errorf("least squares: %w", err)
	}
	var smax float64
	for _, s := range dec.S {
		smax = max(smax, s)
	}
	cut := rcond * smax
	phi := make([]float64, len(dec.S))
	for i, s := range dec.S {
		if s > 0 { // a zero singular value carries no direction
			c := math.Max(s, cut)
			phi[i] = s / (c * c)
		}
	}
	return &LeastSquaresFactor{ut: dec.U.T(), v: dec.V, phi: phi}, nil
}

// SolveVec returns the solution for the right-hand side b, of length m.
func (f *LeastSquaresFactor) SolveVec(b []float64) []float64 {
	x := make([]float64, f.v.rows)
	f.SolveVecInto(x, b)
	return x
}

// SolveVecInto writes SolveVec's solution into x, of length n. Every sum
// runs in ascending order into one accumulator, and nothing is allocated.
func (f *LeastSquaresFactor) SolveVecInto(x, b []float64) {
	m, r := f.ut.cols, f.v.cols
	if len(b) != m || len(x) != f.v.rows {
		panic(fmt.Sprintf("mat: SolveVec lengths b=%d x=%d, want %d and %d", len(b), len(x), m, f.v.rows))
	}
	clear(x)
	for i, phi := range f.phi {
		var s float64
		for k, u := range f.ut.data[i*m : (i+1)*m] {
			s += u * b[k]
		}
		s *= phi
		for p := range x {
			x[p] += f.v.data[p*r+i] * s
		}
	}
}

// ExactRCond is the cutoff at which a LeastSquaresFactor of a is the plain
// pseudo-inverse: only singular values below 1e-13·max(rows, cols) of the
// largest, at the level of rounding error, are filtered.
func ExactRCond(a *Dense) float64 {
	return 1e-13 * float64(maxInt(a.Rows(), a.Cols()))
}

// SolveVec is a one-off least-squares solve of a·x ≈ b at the cutoff
// rcond.
func SolveVec(a *Dense, b []float64, rcond float64) ([]float64, error) {
	f, err := FactorLeastSquares(a, rcond)
	if err != nil {
		return nil, err
	}
	return f.SolveVec(b), nil
}
