package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// boundedMatrix draws an r x c matrix with entries in [-10, 10].
func boundedMatrix(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.Data() {
		m.Data()[i] = rng.Float64()*20 - 10
	}
	return m
}

var quickCfg = &quick.Config{MaxCount: 40}

// Property: (AB)ᵀ = BᵀAᵀ.
func TestPropMulTransposeIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(8)
		k := 1 + rng.Intn(8)
		c := 1 + rng.Intn(8)
		a := boundedMatrix(rng, r, k)
		b := boundedMatrix(rng, k, c)
		lhs := Mul(a, b).T()
		rhs := Mul(b.T(), a.T())
		return lhs.Equal(rhs, 1e-9)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Property: SVD reconstructs any small matrix to near machine precision and
// produces orthonormal factors.
func TestPropSVDReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(10)
		c := 1 + rng.Intn(10)
		a := boundedMatrix(rng, r, c)
		dec, err := SVD(a)
		if err != nil {
			return false
		}
		if !dec.Reconstruct().Equal(a, 1e-8) {
			return false
		}
		gu := MulATB(dec.U, dec.U)
		return gu.Equal(Identity(gu.Rows()), 1e-8)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Property: singular values are invariant under transposition.
func TestPropSVDTransposeInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(9)
		c := 1 + rng.Intn(9)
		a := boundedMatrix(rng, r, c)
		d1, err1 := SVD(a)
		d2, err2 := SVD(a.T())
		if err1 != nil || err2 != nil {
			return false
		}
		n := minInt(len(d1.S), len(d2.S))
		for i := 0; i < n; i++ {
			if math.Abs(d1.S[i]-d2.S[i]) > 1e-8*(1+d1.S[0]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Property: the Frobenius norm equals the l2 norm of the spectrum.
func TestPropSpectrumNorm(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(8)
		c := 1 + rng.Intn(8)
		a := boundedMatrix(rng, r, c)
		dec, err := SVD(a)
		if err != nil {
			return false
		}
		return math.Abs(FrobeniusNorm(a)-Norm2(dec.S)) < 1e-8*(1+FrobeniusNorm(a))
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Property: least-squares residuals are orthogonal to the column space
// (first-order optimality), for any random overdetermined system.
func TestPropLeastSquaresOptimality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		m := n + 1 + rng.Intn(10)
		a := boundedMatrix(rng, m, n)
		b := boundedMatrix(rng, m, 1)
		x, err := leastSquares(a, b, ExactRCond(a))
		if err != nil {
			return false
		}
		resid := Sub(b, Mul(a, x))
		return MaxAbs(MulATB(a, resid)) < 1e-7*(1+MaxAbs(a)*MaxAbs(b))
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Property: NNLS output is always elementwise nonnegative and satisfies the
// KKT conditions: gradient nonpositive where x=0, ~zero where x>0.
func TestPropNNLSKKT(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		m := n + rng.Intn(6)
		a := boundedMatrix(rng, m, n)
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.Float64()*20 - 10
		}
		x, err := NNLS(a, b)
		if err != nil {
			return false
		}
		ax := MulVec(a, x)
		resid := make([]float64, m)
		for i := range resid {
			resid[i] = b[i] - ax[i]
		}
		grad := MulVecT(a, resid) // = Aᵀ(b-Ax); at optimum ≤ 0 on active set, 0 on passive.
		scale := 1 + MaxAbs(a)*Norm2(b)
		for i, xi := range x {
			if xi < 0 {
				return false
			}
			if xi > 1e-8 && math.Abs(grad[i]) > 1e-5*scale {
				return false
			}
			if xi <= 1e-8 && grad[i] > 1e-5*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Property: QR of any tall matrix reproduces it and yields orthonormal Q.
func TestPropQR(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		m := n + rng.Intn(8)
		a := boundedMatrix(rng, m, n)
		f := QRFactor(a)
		q := f.Q()
		if !Mul(q, f.R()).Equal(a, 1e-9) {
			return false
		}
		return MulATB(q, q).Equal(Identity(n), 1e-9)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Property: the SVD's right singular vectors are the eigenvectors of AᵀA
// and its squared singular values the eigenvalues — AᵀA·V = V·S², stated
// on SVD's own output now that no separate eigensolver exists to compare
// against. The tolerance scales with the largest eigenvalue σ₀².
func TestPropEigSVDConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		m := n + rng.Intn(6)
		a := boundedMatrix(rng, m, n)
		s, err := SVD(a)
		if err != nil {
			return false
		}
		vs2 := s.V.Clone()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				vs2.Set(i, j, s.V.At(i, j)*s.S[j]*s.S[j])
			}
		}
		return Mul(MulATB(a, a), s.V).Equal(vs2, 1e-7*(1+s.S[0]*s.S[0]))
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}
