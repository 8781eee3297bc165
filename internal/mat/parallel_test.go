package mat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMulParallelMatchesSerialExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	// Large enough to trigger the parallel path; 301 rows split into row
	// blocks that start or end on an odd row of the kernel's 2-row tiles.
	a := randomMatrix(rng, 301, 250)
	b := randomMatrix(rng, 250, 283)
	serial := Mul(a, b)
	parallel := MulParallel(a, b)
	// Bitwise identical: same per-row accumulation order.
	if !serial.Equal(parallel, 0) {
		t.Fatal("parallel product must be bitwise identical to serial")
	}
}

func TestMulParallelSmallFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := randomMatrix(rng, 4, 5)
	b := randomMatrix(rng, 5, 3)
	if !MulParallel(a, b).Equal(Mul(a, b), 0) {
		t.Fatal("small-product fallback mismatch")
	}
}

func TestMulParallelIntoOverwrites(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := randomMatrix(rng, 64, 64)
	b := randomMatrix(rng, 64, 64)
	dst := NewDense(64, 64)
	dst.Fill(123)
	MulParallelInto(dst, a, b)
	if !dst.Equal(Mul(a, b), 0) {
		t.Fatal("MulParallelInto must fully overwrite dst")
	}
}

// Property: parallel and serial products agree for arbitrary shapes.
func TestPropMulParallelEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(40)
		k := 1 + rng.Intn(40)
		n := 1 + rng.Intn(40)
		a := boundedMatrix(rng, m, k)
		b := boundedMatrix(rng, k, n)
		return MulParallel(a, b).Equal(Mul(a, b), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMulSerial512(b *testing.B) {
	a := benchMatrix(512, 10)
	c := benchMatrix(512, 11)
	dst := NewDense(512, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulInto(dst, a, c)
	}
}

func BenchmarkMulParallel512(b *testing.B) {
	a := benchMatrix(512, 10)
	c := benchMatrix(512, 11)
	dst := NewDense(512, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulParallelInto(dst, a, c)
	}
}
