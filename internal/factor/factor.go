// Package factor implements the matrix-factorization algorithms at the core
// of the paper: truncated SVD factorization of a distance matrix (Eqs. 5–6),
// nonnegative matrix factorization by Lee–Seung multiplicative updates
// (Eq. 7 objective; Eqs. 8–9 for missing data), and the Lipschitz+PCA
// embedding used by the ICS and Virtual Landmark baselines (§2.1).
//
// All algorithms operate on a (possibly rectangular) distance matrix D and
// produce factor matrices X (outgoing vectors, one row per source host) and
// Y (incoming vectors, one row per destination host) with D ≈ X·Yᵀ.
package factor

import (
	"fmt"
	"math"

	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/stats"
)

// Factors holds a rank-d factorization D ≈ X·Yᵀ of an m x n distance
// matrix: X is m x d (outgoing vectors), Y is n x d (incoming vectors).
type Factors struct {
	X *mat.Dense
	Y *mat.Dense
}

// Dim returns the factorization rank d.
func (f *Factors) Dim() int { return f.X.Cols() }

// Estimate returns the modeled distance from source i to destination j,
// the dot product of i's outgoing vector with j's incoming vector (Eq. 4).
func (f *Factors) Estimate(i, j int) float64 {
	return mat.Dot(f.X.Row(i), f.Y.Row(j))
}

// Reconstruct returns the full estimated distance matrix X·Yᵀ.
func (f *Factors) Reconstruct() *mat.Dense {
	return mat.MulABT(f.X, f.Y)
}

// Outgoing returns host i's outgoing vector (shared storage).
func (f *Factors) Outgoing(i int) []float64 { return f.X.Row(i) }

// Incoming returns host j's incoming vector (shared storage).
func (f *Factors) Incoming(j int) []float64 { return f.Y.Row(j) }

// ReconstructionErrors returns the modified relative error (Eq. 10) of
// every off-diagonal entry of d under the factorization. For rectangular
// matrices all entries are scored.
func (f *Factors) ReconstructionErrors(d *mat.Dense) []float64 {
	m, n := d.Dims()
	return stats.RelativeErrors(m, n, d.At, f.Reconstruct().At)
}

// svdExactThreshold is the largest min-dimension for which SVDFactor uses
// the exact Jacobi decomposition; larger problems use randomized subspace
// iteration, which matches the exact leading spectrum to several digits on
// rapidly decaying RTT matrices at a fraction of the cost (see
// experiments.AblationSVDAlgorithms).
const svdExactThreshold = 256

// SVDFactor computes the rank-d SVD factorization of the distance matrix
// (paper Eqs. 5–6): D = U·S·Vᵀ, X = U_d·S_d^{1/2}, Y = V_d·S_d^{1/2}.
// Seed steers the randomized path taken for large matrices; the exact path
// ignores it.
func SVDFactor(d *mat.Dense, dim int, seed int64) (*Factors, error) {
	m, n := d.Dims()
	if dim <= 0 {
		panic(fmt.Sprintf("factor: rank %d must be positive", dim))
	}
	if mn := minInt(m, n); dim > mn {
		dim = mn
	}
	var (
		dec *mat.SVDResult
		err error
	)
	if minInt(m, n) <= svdExactThreshold {
		dec, err = mat.SVD(d)
		if err == nil {
			dec = dec.Truncate(dim)
		}
	} else {
		dec, err = mat.TruncatedSVD(d, dim, seed)
	}
	if err != nil {
		return nil, fmt.Errorf("svd factorization: %w", err)
	}
	x := mat.NewDense(m, dim)
	y := mat.NewDense(n, dim)
	for k := 0; k < dim; k++ {
		root := sqrtNonNeg(dec.S[k])
		for i := 0; i < m; i++ {
			x.Set(i, k, dec.U.At(i, k)*root)
		}
		for j := 0; j < n; j++ {
			y.Set(j, k, dec.V.At(j, k)*root)
		}
	}
	return &Factors{X: x, Y: y}, nil
}

func sqrtNonNeg(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
