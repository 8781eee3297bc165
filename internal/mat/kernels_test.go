package mat

import (
	"encoding/binary"
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

// dotBlockSpecials are the values a dot product can turn into anything
// but an ordinary sum: signed zeros, subnormals, infinities, NaN, and
// magnitudes whose products or sums overflow.
var dotBlockSpecials = []float64{
	0, math.Copysign(0, -1), 1, -1,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1060, 0x1p-1030,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.MaxFloat64, -math.MaxFloat64, 0x1p511, -0x1p512, 0x1p1000,
}

// fixedOrderDot is the reduction order every dot product in the system
// is computed in, written out plainly: four strided partial sums, then
// ((s0+s1)+(s2+s3)) plus the scalar tail. Estimates, goldens and the
// k-NN order all rest on it.
func fixedOrderDot(x, y []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	var s float64
	for ; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return (s0 + s1) + (s2 + s3) + s
}

// checkDotBlock scores every row of block against x with DotBlockInto
// and fails unless each score has the bits Dot gives that row, and the
// bits of the fixed reduction order (any NaN for a NaN: which operand's
// payload an add keeps is the compiler's choice, and a NaN score is
// dropped by every ranking).
func checkDotBlock(t *testing.T, block, x []float64) {
	t.Helper()
	n := len(x)
	dst := make([]float64, len(block)/n)
	DotBlockInto(dst, block, x)
	for r, got := range dst {
		row := block[r*n : (r+1)*n]
		if want := Dot(x, row); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("d=%d row %d: DotBlockInto %v (%#x), Dot %v (%#x)\nx   %v\nrow %v",
				n, r, got, math.Float64bits(got), want, math.Float64bits(want), x, row)
		}
		want := fixedOrderDot(x, row)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("d=%d row %d: DotBlockInto %v (%#x), fixed order %v (%#x)\nx   %v\nrow %v",
				n, r, got, math.Float64bits(got), want, math.Float64bits(want), x, row)
		}
	}
}

// TestDotBlockMatchesDot holds the block kernel, row by row, to Dot and
// to the fixed reduction order by Float64bits at every dimension 1–17 —
// the 8-wide path, the 4-wide loop and each tail length — on ordinary
// values and on rows seeded with special values.
func TestDotBlockMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pick := func(special bool) float64 {
		if special && rng.Intn(3) == 0 {
			return dotBlockSpecials[rng.Intn(len(dotBlockSpecials))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
	}
	for n := 1; n <= 17; n++ {
		for trial := 0; trial < 200; trial++ {
			special := trial%2 == 1
			rows := 1 + rng.Intn(40)
			x, block := make([]float64, n), make([]float64, rows*n)
			for i := range x {
				x[i] = pick(special)
			}
			for i := range block {
				block[i] = pick(special)
			}
			checkDotBlock(t, block, x)
		}
	}
	// Products of opposite sign that cancel to zero, and all-negative-zero
	// rows: the sign of a zero sum depends on the reduction order.
	for n := 1; n <= 17; n++ {
		x, block := make([]float64, n), make([]float64, 3*n)
		for i := range x {
			x[i] = 1
			block[i] = math.Copysign(0, -1)
			block[n+i] = float64(1 - 2*(i%2))
			block[2*n+i] = -0x1p-1074
		}
		checkDotBlock(t, block, x)
	}
	checkDotBlock(t, nil, []float64{1, 2, 3}) // no rows
	defer func() {
		if recover() == nil {
			t.Fatal("DotBlockInto with a block of the wrong length did not panic")
		}
	}()
	DotBlockInto(make([]float64, 2), make([]float64, 5), []float64{1, 2})
}

// FuzzDotBlockMatchesDot: for any dimension 1–17 and any bits in x and
// the rows, DotBlockInto's scores have Dot's bits and the fixed order's. The first byte picks
// the dimension; every 8 bytes after it are one float64, x first, then
// as many whole rows as remain.
func FuzzDotBlockMatchesDot(f *testing.F) {
	enc := func(n byte, vs ...float64) []byte {
		b := []byte{n}
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	negz, inf, nan := math.Copysign(0, -1), math.Inf(1), math.NaN()
	f.Add(enc(3, 1, 2, 3, 4, 5, 6, 7, 8, 9))
	f.Add(enc(8, 1, 1, 1, 1, 1, 1, 1, 1, negz, negz, negz, negz, negz, negz, negz, negz))
	f.Add(enc(5, inf, 0, 1, 2, 3, 0, 1, 2, 3, 4, nan, 1, 1, 1, 1))
	f.Add(enc(1, math.MaxFloat64, 2, -math.SmallestNonzeroFloat64))
	f.Add(enc(9, 1e308, 1e308, -1e308, 1, 1, 1, 1, 1, 1, 1e308, 1e308, 1e308, 1, 1, 1, 1, 1, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%17
		var vs []float64
		for data = data[1:]; len(data) >= 8; data = data[8:] {
			vs = append(vs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		if len(vs) < n {
			return
		}
		x, block := vs[:n], vs[n:]
		checkDotBlock(t, block[:len(block)/n*n], x)
	})
}
