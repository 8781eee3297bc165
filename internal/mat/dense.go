// Package mat implements the dense linear algebra needed by the IDES
// distance-estimation system: matrix arithmetic, Householder QR, full and
// truncated singular value decompositions, linear (SVD-filtered) and
// nonnegative least squares.
//
// The package is self-contained (standard library only) and deterministic:
// every randomized routine takes an explicit seed. Matrices are dense,
// row-major float64. Following the convention of established Go numeric
// libraries, shape mismatches are programmer errors and panic; numerical
// failures (non-convergence) are reported as errors.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a dense, row-major matrix of float64 values.
//
// The zero value is an empty 0x0 matrix. Use NewDense or FromRows to
// construct matrices with content.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zeroed r x c matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// FromRows builds a matrix by copying the given rows.
// All rows must have equal length.
func FromRows(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: ragged rows: row 0 has %d cols, row %d has %d", c, i, len(row)))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Dims returns the number of rows and columns.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) checkIndex(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a slice sharing the matrix's backing storage.
// Mutating the slice mutates the matrix.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
}

// SetRow copies v into row i. len(v) must equal the column count.
func (m *Dense) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("mat: SetRow length %d != cols %d", len(v), m.cols))
	}
	copy(m.Row(i), v)
}

// Data returns the backing slice in row-major order. Mutations are visible
// to the matrix.
func (m *Dense) Data() []float64 { return m.data }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// CopyFrom overwrites m with the contents of src. Shapes must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.rows != src.rows || m.cols != src.cols {
		panic(fmt.Sprintf("mat: CopyFrom shape mismatch %dx%d vs %dx%d", m.rows, m.cols, src.rows, src.cols))
	}
	copy(m.data, src.data)
}

// T returns a newly allocated transpose of m.
func (m *Dense) T() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			out.data[j*m.rows+i] = v
		}
	}
	return out
}

// SelectRows returns a copy of the listed rows, in order.
func (m *Dense) SelectRows(idx []int) *Dense {
	out := NewDense(len(idx), m.cols)
	for k, i := range idx {
		copy(out.Row(k), m.Row(i))
	}
	return out
}

// SelectCols returns a copy of the listed columns, in order.
func (m *Dense) SelectCols(idx []int) *Dense {
	out := NewDense(m.rows, len(idx))
	for i := 0; i < m.rows; i++ {
		src := m.Row(i)
		dst := out.Row(i)
		for k, j := range idx {
			dst[k] = src[j]
		}
	}
	return out
}

// Fill sets every element of m to v.
func (m *Dense) Fill(v float64) {
	for i := range m.data {
		m.data[i] = v
	}
}

// Apply replaces every element x with f(i, j, x).
func (m *Dense) Apply(f func(i, j int, v float64) float64) {
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			row[j] = f(i, j, v)
		}
	}
}

// Equal reports whether m and n have the same shape and elements within tol.
func (m *Dense) Equal(n *Dense, tol float64) bool {
	if m.rows != n.rows || m.cols != n.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-n.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Dense) String() string {
	const maxShow = 8
	var b strings.Builder
	fmt.Fprintf(&b, "Dense(%dx%d)[", m.rows, m.cols)
	for i := 0; i < m.rows && i < maxShow; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.cols && j < maxShow; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4g", m.data[i*m.cols+j])
		}
		if m.cols > maxShow {
			b.WriteString(" ...")
		}
	}
	if m.rows > maxShow {
		b.WriteString("; ...")
	}
	b.WriteByte(']')
	return b.String()
}
