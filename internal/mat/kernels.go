package mat

import "fmt"

// Hot-loop kernels for the query path. The estimate side of the system
// (core.Estimate, the query engine's point/batch/k-NN scoring) reduces to
// dot products over short dense rows; these kernels unroll that reduction
// 4-wide so the compiler keeps four independent accumulator chains in
// registers instead of serializing on one FP add per element.
//
// The reduction order is fixed — ((s0+s1)+(s2+s3)) plus a scalar tail —
// so results are deterministic for a given input, and every caller
// (exact k-NN scan, spatial index, batch estimation) scores through the
// same kernel and therefore agrees bitwise.

// dot4 is the shared unrolled kernel: len(y) must be >= len(x).
func dot4(x, y []float64) float64 {
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

// MulVecInto computes dst = a*x without allocating. len(dst) must equal
// a.rows.
func MulVecInto(dst []float64, a *Dense, x []float64) {
	if a.cols != len(x) {
		panic(fmt.Sprintf("mat: MulVecInto shape mismatch %dx%d * %d", a.rows, a.cols, len(x)))
	}
	if len(dst) != a.rows {
		panic(fmt.Sprintf("mat: MulVecInto dst %d want %d", len(dst), a.rows))
	}
	for i := 0; i < a.rows; i++ {
		dst[i] = dot4(a.data[i*a.cols:(i+1)*a.cols], x)
	}
}

// DotRowsInto is the fused estimate-row kernel behind EstimateBatch:
// dst[i] = rows[i]·x for every non-nil row, while nil rows (lookup
// misses) leave dst[i] untouched. Rows must have length len(x).
func DotRowsInto(dst []float64, rows [][]float64, x []float64) {
	if len(dst) != len(rows) {
		panic(fmt.Sprintf("mat: DotRowsInto dst %d want %d", len(dst), len(rows)))
	}
	for i, row := range rows {
		if row == nil {
			continue
		}
		if len(row) != len(x) {
			panic(fmt.Sprintf("mat: DotRowsInto row %d length %d want %d", i, len(row), len(x)))
		}
		dst[i] = dot4(row, x)
	}
}
