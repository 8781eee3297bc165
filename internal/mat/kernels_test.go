package mat

import (
	"math"
	"math/rand"
	"testing"
)

// naiveDot is the reference the unrolled kernel is checked against.
func naiveDot(x, y []float64) float64 {
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

func TestDot4MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64, 100} {
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		got := Dot(x, y)
		want := naiveDot(x, y)
		if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("n=%d: Dot=%g naive=%g", n, got, want)
		}
	}
}

func TestDotDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 37)
	y := make([]float64, 37)
	for i := range x {
		x[i] = rng.NormFloat64() * 1e3
		y[i] = rng.NormFloat64() * 1e-3
	}
	first := Dot(x, y)
	for i := 0; i < 100; i++ {
		if got := Dot(x, y); got != first {
			t.Fatalf("run %d: Dot not bitwise stable: %x vs %x", i, got, first)
		}
	}
}

func TestMulVecInto(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	dst := make([]float64, 2)
	MulVecInto(dst, a, []float64{1, 1, 1})
	if dst[0] != 6 || dst[1] != 15 {
		t.Fatalf("MulVecInto = %v", dst)
	}
	// MulVec must agree with the into-variant exactly.
	got := MulVec(a, []float64{1, 1, 1})
	if got[0] != dst[0] || got[1] != dst[1] {
		t.Fatalf("MulVec %v != MulVecInto %v", got, dst)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MulVecInto with short dst did not panic")
		}
	}()
	MulVecInto(make([]float64, 1), a, []float64{1, 1, 1})
}

func TestDotRowsInto(t *testing.T) {
	x := []float64{2, 3}
	rows := [][]float64{{1, 1}, nil, {0, 4}}
	dst := []float64{-1, -1, -1}
	DotRowsInto(dst, rows, x)
	if dst[0] != 5 || dst[1] != -1 || dst[2] != 12 {
		t.Fatalf("DotRowsInto = %v", dst)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("DotRowsInto with bad row length did not panic")
		}
	}()
	DotRowsInto(dst, [][]float64{{1}, nil, nil}, x)
}

func BenchmarkDot(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(i) * 0.5
			y[i] = float64(n - i)
		}
		b.Run(sizeName(n), func(b *testing.B) {
			var s float64
			for i := 0; i < b.N; i++ {
				s += Dot(x, y)
			}
			sink = s
		})
	}
}

var sink float64

func sizeName(n int) string {
	switch {
	case n >= 1024:
		return "d" + string(rune('0'+n/1024)) + "k"
	default:
		b := [4]byte{}
		i := len(b)
		for n > 0 {
			i--
			b[i] = byte('0' + n%10)
			n /= 10
		}
		return "d" + string(b[i:])
	}
}
