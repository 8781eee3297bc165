package mat

import (
	"math"
	"math/rand"
	"testing"
)

func TestQRReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, dims := range [][2]int{{5, 5}, {10, 4}, {30, 7}, {3, 1}} {
		a := randomMatrix(rng, dims[0], dims[1])
		f := QRFactor(a)
		q, r := f.Q(), f.R()
		checkOrthonormalCols(t, q, 1e-10, "Q")
		if !Mul(q, r).Equal(a, 1e-10) {
			t.Fatalf("QR reconstruct failed for %v", dims)
		}
		// R must be upper triangular.
		for i := 1; i < r.Rows(); i++ {
			for j := 0; j < i; j++ {
				if r.At(i, j) != 0 {
					t.Fatalf("R(%d,%d) = %v not zero", i, j, r.At(i, j))
				}
			}
		}
	}
}

func TestQRWideInputPanics(t *testing.T) {
	defer expectPanic(t, "rows >= cols")
	QRFactor(NewDense(2, 5))
}

// leastSquares solves for every column of b against one factor of a.
func leastSquares(a, b *Dense, rcond float64) (*Dense, error) {
	f, err := FactorLeastSquares(a, rcond)
	if err != nil {
		return nil, err
	}
	bt := b.T()
	xt := NewDense(b.Cols(), a.Cols())
	for j := range b.Cols() {
		f.SolveVecInto(xt.Row(j), bt.Row(j))
	}
	return xt.T(), nil
}

func TestLeastSquaresMatchesNormalEquations(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := randomMatrix(rng, 15, 5)
	b := randomMatrix(rng, 15, 2)
	x, err := leastSquares(a, b, ExactRCond(a))
	if err != nil {
		t.Fatal(err)
	}
	// Normal equations AᵀA x = Aᵀ b.
	ata := MulATB(a, a)
	atb := MulATB(a, b)
	if !Mul(ata, x).Equal(atb, 1e-9) {
		t.Fatal("least squares does not satisfy the normal equations")
	}
}

func TestLeastSquaresRankDeficientMinNorm(t *testing.T) {
	// Columns 0 and 1 identical: infinitely many solutions, and no error;
	// the minimum-norm one splits the weight evenly.
	a := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	b := FromRows([][]float64{{2}, {4}, {6}})
	x, err := leastSquares(a, b, ExactRCond(a))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x.At(0, 0)-1) > 1e-9 || math.Abs(x.At(1, 0)-1) > 1e-9 {
		t.Fatalf("min-norm solution = %v want [1;1]", x)
	}
}

func TestLeastSquaresUnderdetermined(t *testing.T) {
	// Fewer rows than columns: the minimum-norm solution interpolates.
	a := FromRows([][]float64{{1, 0, 1}, {0, 1, 1}})
	b := FromRows([][]float64{{2}, {3}})
	x, err := leastSquares(a, b, ExactRCond(a))
	if err != nil {
		t.Fatal(err)
	}
	if !Mul(a, x).Equal(b, 1e-9) {
		t.Fatal("underdetermined system should be solved exactly")
	}
}

func TestLeastSquaresFiltersBelowCutoff(t *testing.T) {
	// Singular values 4 and 0.1 with the cutoff at 0.25·4 = 1: the first
	// direction is inverted exactly, the second scaled by φ(s) = s/c², not
	// amplified by 1/s.
	a := FromRows([][]float64{{4, 0}, {0, 0.1}, {0, 0}})
	x, err := SolveVec(a, []float64{8, 1, 5}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-0.1) > 1e-12 {
		t.Fatalf("x = %v want [2 0.1]", x)
	}
	// At the exact cutoff the same system is solved exactly.
	if x, _ = SolveVec(a, []float64{8, 1, 5}, ExactRCond(a)); math.Abs(x[1]-10) > 1e-9 {
		t.Fatalf("exact x = %v want [2 10]", x)
	}
}

func TestSolveVec(t *testing.T) {
	a := FromRows([][]float64{{1, 0}, {0, 2}, {0, 0}})
	x, err := SolveVec(a, []float64{3, 4, 0}, ExactRCond(a))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("x = %v want [3 2]", x)
	}
}

func TestNNLSKnown(t *testing.T) {
	// Unconstrained optimum is positive, so NNLS must match it.
	a := FromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	b := []float64{1, 2, 3}
	x, err := NNLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SolveVec(a, b, ExactRCond(a))
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-8 {
			t.Fatalf("NNLS = %v want unconstrained %v", x, want)
		}
	}
}

func TestNNLSClampsNegative(t *testing.T) {
	// The unconstrained solution has a negative coordinate; NNLS must
	// return a nonnegative solution that is no worse than clamping.
	a := FromRows([][]float64{{1, 1}, {1, -1}})
	b := []float64{0, 2}
	x, err := NNLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if v < 0 {
			t.Fatalf("x[%d] = %v negative", i, v)
		}
	}
	// Optimal nonnegative solution: x = [1, 0] giving residual (−1, 1)... verify
	// by comparing objective against a grid scan.
	best := math.Inf(1)
	for x0 := 0.0; x0 <= 2; x0 += 0.01 {
		for x1 := 0.0; x1 <= 2; x1 += 0.01 {
			r0 := x0 + x1 - 0
			r1 := x0 - x1 - 2
			if obj := r0*r0 + r1*r1; obj < best {
				best = obj
			}
		}
	}
	r0 := x[0] + x[1]
	r1 := x[0] - x[1] - 2
	got := r0*r0 + r1*r1
	if got > best+1e-3 {
		t.Fatalf("NNLS objective %v worse than grid optimum %v (x=%v)", got, best, x)
	}
}

func TestNNLSZeroRHS(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	x, err := NNLS(a, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatalf("NNLS of zero rhs = %v want zeros", x)
		}
	}
}
