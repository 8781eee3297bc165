package mat

import (
	"fmt"
	"math"
)

// Mul returns the product a*b.
func Mul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewDense(a.rows, b.cols)
	MulInto(out, a, b)
	return out
}

// MulInto computes dst = a*b without allocating. dst must not alias a or b.
func MulInto(dst, a, b *Dense) {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: MulInto shape mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("mat: MulInto dst %dx%d want %dx%d", dst.rows, dst.cols, a.rows, b.cols))
	}
	mulRows(dst, a, b, 0, a.rows)
}

// MulABT returns a * bᵀ.
func MulABT(a, b *Dense) *Dense {
	if a.cols != b.cols {
		panic(fmt.Sprintf("mat: MulABT shape mismatch %dx%d * (%dx%d)ᵀ", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewDense(a.rows, b.rows)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		drow := out.data[i*b.rows : (i+1)*b.rows]
		for j := 0; j < b.rows; j++ {
			drow[j] = dot4(arow, b.data[j*b.cols:(j+1)*b.cols])
		}
	}
	return out
}

// MulATB returns aᵀ * b. It runs on Mul's kernel over a transposed copy
// of a, which sums each entry over the rows of a and b in ascending
// order, as the direct loop would.
func MulATB(a, b *Dense) *Dense {
	if a.rows != b.rows {
		panic(fmt.Sprintf("mat: MulATB shape mismatch (%dx%d)ᵀ * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewDense(a.cols, b.cols)
	mulRows(out, a.T(), b, 0, a.cols)
	return out
}

// Add returns a + b.
func Add(a, b *Dense) *Dense {
	checkSameShape("Add", a, b)
	out := NewDense(a.rows, a.cols)
	for i, v := range a.data {
		out.data[i] = v + b.data[i]
	}
	return out
}

// Sub returns a - b.
func Sub(a, b *Dense) *Dense {
	checkSameShape("Sub", a, b)
	out := NewDense(a.rows, a.cols)
	for i, v := range a.data {
		out.data[i] = v - b.data[i]
	}
	return out
}

// Scale returns s*a.
func Scale(s float64, a *Dense) *Dense {
	out := NewDense(a.rows, a.cols)
	for i, v := range a.data {
		out.data[i] = s * v
	}
	return out
}

func checkSameShape(op string, a, b *Dense) {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, a.rows, a.cols, b.rows, b.cols))
	}
}

// MulVec returns the matrix-vector product a*x.
func MulVec(a *Dense, x []float64) []float64 {
	if a.cols != len(x) {
		panic(fmt.Sprintf("mat: MulVec shape mismatch %dx%d * %d", a.rows, a.cols, len(x)))
	}
	out := make([]float64, a.rows)
	MulVecInto(out, a, x)
	return out
}

// MulVecT returns aᵀ*x.
func MulVecT(a *Dense, x []float64) []float64 {
	if a.rows != len(x) {
		panic(fmt.Sprintf("mat: MulVecT shape mismatch (%dx%d)ᵀ * %d", a.rows, a.cols, len(x)))
	}
	out := make([]float64, a.cols)
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		row := a.data[i*a.cols : (i+1)*a.cols]
		for j, v := range row {
			out[j] += xv * v
		}
	}
	return out
}

// Dot returns the dot product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	return dot4(x, y)
}

// Norm2 returns the Euclidean norm of x, guarding against overflow.
func Norm2(x []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// FrobeniusNorm returns the Frobenius norm of m.
func FrobeniusNorm(m *Dense) float64 { return Norm2(m.data) }

// MaxAbs returns the largest absolute element of m, or 0 for empty matrices.
func MaxAbs(m *Dense) float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Trace returns the sum of diagonal elements of a square matrix.
func Trace(m *Dense) float64 {
	if m.rows != m.cols {
		panic(fmt.Sprintf("mat: Trace of non-square %dx%d", m.rows, m.cols))
	}
	var s float64
	for i := 0; i < m.rows; i++ {
		s += m.data[i*m.cols+i]
	}
	return s
}
