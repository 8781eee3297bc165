package mat

import (
	"fmt"
	"math/rand"
)

const (
	// svdOversample is the number of extra subspace dimensions carried
	// during iteration to improve accuracy of the leading d components.
	svdOversample = 8
	// svdPowerIters is the number of (A Aᵀ) power iterations applied to
	// the random starting block: plenty for RTT matrices, whose spectra
	// decay quickly.
	svdPowerIters = 6
)

// TruncatedSVD computes the leading d singular triples of a by randomized
// subspace iteration: a seeded Gaussian block is power-iterated with
// intermediate QR re-orthonormalization, and the small projected matrix is
// decomposed exactly by Jacobi SVD. For the matrices in this repository
// (rapidly decaying RTT spectra) the result matches the exact truncated SVD
// to several digits at a fraction of the cost. seed seeds the random
// starting block, making results reproducible.
func TruncatedSVD(a *Dense, d int, seed int64) (*SVDResult, error) {
	m, n := a.Dims()
	if d <= 0 {
		panic(fmt.Sprintf("mat: TruncatedSVD rank %d must be positive", d))
	}
	if d > minInt(m, n) {
		d = minInt(m, n)
	}
	k := minInt(d+svdOversample, minInt(m, n))

	rng := rand.New(rand.NewSource(seed))
	omega := NewDense(n, k)
	for i := range omega.data {
		omega.data[i] = rng.NormFloat64()
	}

	// Y = A Ω, orthonormalize.
	q := orthonormalize(Mul(a, omega))
	for it := 0; it < svdPowerIters; it++ {
		z := orthonormalize(MulATB(a, q)) // n x k
		q = orthonormalize(Mul(a, z))     // m x k
	}

	// Project: B = Qᵀ A is k x n; decompose it exactly.
	b := MulATB(q, a)
	small, err := SVD(b)
	if err != nil {
		return nil, fmt.Errorf("truncated svd: projected decomposition: %w", err)
	}
	small = small.Truncate(d)
	u := Mul(q, small.U)
	return &SVDResult{U: u, S: small.S, V: small.V}, nil
}

// orthonormalize returns a matrix with orthonormal columns spanning the
// column space of a (thin Q of a QR factorization).
func orthonormalize(a *Dense) *Dense {
	return QRFactor(a).Q()
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
