package mat

import (
	"fmt"
	"math"
)

// LeastSquares returns the X minimizing ||A*X - B||_F over the well-resolved
// part of A's spectrum, for A of any shape. With A = U·diag(S)·Vᵀ it is
//
//	X = V · φ(S) · Uᵀ · B,  φ(s) = 1/s for s ≥ c,  φ(s) = s/c² below,
//
// where c = rcond·max(S). Above the cutoff this is the pseudo-inverse, so a
// system whose condition number is below 1/rcond is solved exactly (the
// minimum-norm solution when it is underdetermined). Below the cutoff φ
// falls linearly to zero instead of growing as 1/s, so a direction that A
// barely resolves cannot fling the solution off. At ExactRCond(A) only
// singular values at rounding level are filtered. All columns of B share
// one decomposition of A.
func LeastSquares(a, b *Dense, rcond float64) (*Dense, error) {
	if b.Rows() != a.Rows() {
		panic(fmt.Sprintf("mat: LeastSquares B rows %d != A rows %d", b.Rows(), a.Rows()))
	}
	dec, err := SVD(a)
	if err != nil {
		return nil, fmt.Errorf("least squares: %w", err)
	}
	utb := MulATB(dec.U, b)
	var smax float64
	for _, s := range dec.S {
		smax = max(smax, s)
	}
	cut := rcond * smax
	for i, s := range dec.S {
		var phi float64 // a zero singular value carries no direction
		if s > 0 {
			c := math.Max(s, cut)
			phi = s / (c * c)
		}
		row := utb.Row(i)
		for j := range row {
			row[j] *= phi
		}
	}
	return Mul(dec.V, utb), nil
}

// ExactRCond is the cutoff at which LeastSquares is the plain pseudo-inverse
// of a: only singular values below 1e-13·max(rows, cols) of the largest, at
// the level of rounding error, are filtered.
func ExactRCond(a *Dense) float64 {
	return 1e-13 * float64(maxInt(a.Rows(), a.Cols()))
}

// SolveVec is LeastSquares for a single right-hand side vector.
func SolveVec(a *Dense, b []float64, rcond float64) ([]float64, error) {
	if len(b) != a.Rows() {
		panic(fmt.Sprintf("mat: SolveVec length %d != rows %d", len(b), a.Rows()))
	}
	x, err := LeastSquares(a, &Dense{rows: len(b), cols: 1, data: b}, rcond)
	if err != nil {
		return nil, err
	}
	return x.data, nil
}
