package mat

import (
	"math/rand"
	"testing"
)

func benchMatrix(n int, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	m := NewDense(n, n)
	for i := range m.Data() {
		m.Data()[i] = rng.NormFloat64()
	}
	return m
}

func BenchmarkMul128(b *testing.B) {
	a := benchMatrix(128, 1)
	c := benchMatrix(128, 2)
	dst := NewDense(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulInto(dst, a, c)
	}
}

func BenchmarkSVDJacobi64(b *testing.B) {
	a := benchMatrix(64, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SVD(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTruncatedSVD512d10(b *testing.B) {
	a := benchMatrix(512, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TruncatedSVD(a, 10, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQRFactor256x32(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	a := NewDense(256, 32)
	for i := range a.Data() {
		a.Data()[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QRFactor(a)
	}
}

func BenchmarkLeastSquares64x8(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	a := NewDense(64, 8)
	for i := range a.Data() {
		a.Data()[i] = rng.NormFloat64()
	}
	rhs := NewDense(64, 1)
	for i := range rhs.Data() {
		rhs.Data()[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := leastSquares(a, rhs, ExactRCond(a)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNNLS64x8(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	a := NewDense(64, 8)
	for i := range a.Data() {
		a.Data()[i] = rng.Float64()
	}
	rhs := make([]float64, 64)
	for i := range rhs {
		rhs[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NNLS(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}
