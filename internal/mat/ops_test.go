package mat

import (
	"math"
	"math/rand"
	"testing"
)

func randomMatrix(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.Data() {
		m.Data()[i] = rng.NormFloat64()
	}
	return m
}

// naiveMul is the reference O(n³) triple loop used to validate the cache-
// blocked implementations.
func naiveMul(a, b *Dense) *Dense {
	out := NewDense(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			var s float64
			for k := 0; k < a.Cols(); k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// TestMulMatchesNaive: the tiled kernel sums every entry in the triple
// loop's order, so it must agree bit for bit, across odd row counts and
// column counts off the tile width.
func TestMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {7, 3, 9}, {16, 16, 16}, {1, 7, 4}, {2, 3, 1}, {3, 5, 2}, {6, 9, 5}, {9, 6, 10}, {33, 17, 11}} {
		a := randomMatrix(rng, dims[0], dims[1])
		b := randomMatrix(rng, dims[1], dims[2])
		got := Mul(a, b)
		want := naiveMul(a, b)
		if !got.Equal(want, 0) {
			t.Fatalf("Mul mismatch for dims %v", dims)
		}
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer expectPanic(t, "Mul shape")
	Mul(NewDense(2, 3), NewDense(2, 3))
}

func TestMulABT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMatrix(rng, 4, 6)
	b := randomMatrix(rng, 5, 6)
	got := MulABT(a, b)
	want := naiveMul(a, b.T())
	if !got.Equal(want, 1e-12) {
		t.Fatal("MulABT mismatch")
	}
}

func TestMulATB(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 6, 4)
	b := randomMatrix(rng, 6, 5)
	got := MulATB(a, b)
	want := naiveMul(a.T(), b)
	if !got.Equal(want, 0) {
		t.Fatal("MulATB mismatch")
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	got := MulVec(a, []float64{1, -1})
	if got[0] != -1 || got[1] != -1 {
		t.Fatalf("MulVec = %v want [-1 -1]", got)
	}
}

func TestMulVecT(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	got := MulVecT(a, []float64{1, -1})
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MulVecT = %v want [-2 -2]", got)
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{4, 3}, {2, 1}})
	if !Add(a, b).Equal(FromRows([][]float64{{5, 5}, {5, 5}}), 0) {
		t.Fatal("Add mismatch")
	}
	if !Sub(a, b).Equal(FromRows([][]float64{{-3, -1}, {1, 3}}), 0) {
		t.Fatal("Sub mismatch")
	}
	if !Scale(2, a).Equal(FromRows([][]float64{{2, 4}, {6, 8}}), 0) {
		t.Fatal("Scale mismatch")
	}
}

func TestDot(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot mismatch")
	}
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); math.Abs(got-5) > 1e-15 {
		t.Fatalf("Norm2 = %v want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil) = %v want 0", got)
	}
}

func TestNorm2OverflowGuard(t *testing.T) {
	big := 1e200
	got := Norm2([]float64{big, big})
	want := big * math.Sqrt2
	if math.IsInf(got, 0) || math.Abs(got-want)/want > 1e-14 {
		t.Fatalf("Norm2 overflow guard failed: %v want %v", got, want)
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {2, 4}})
	if got := FrobeniusNorm(m); math.Abs(got-5) > 1e-14 {
		t.Fatalf("FrobeniusNorm = %v want 5", got)
	}
}

func TestMaxAbs(t *testing.T) {
	m := FromRows([][]float64{{1, -7}, {2, 4}})
	if got := MaxAbs(m); got != 7 {
		t.Fatalf("MaxAbs = %v want 7", got)
	}
}

func TestTrace(t *testing.T) {
	m := FromRows([][]float64{{1, 9}, {9, 4}})
	if got := Trace(m); got != 5 {
		t.Fatalf("Trace = %v want 5", got)
	}
}

func TestMulIntoReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomMatrix(rng, 3, 3)
	b := randomMatrix(rng, 3, 3)
	dst := NewDense(3, 3)
	dst.Fill(999) // Stale content must be overwritten.
	MulInto(dst, a, b)
	if !dst.Equal(naiveMul(a, b), 1e-12) {
		t.Fatal("MulInto must fully overwrite dst")
	}
}
