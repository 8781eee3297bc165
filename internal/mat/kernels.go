package mat

import "fmt"

// Hot-loop kernels for the query path. The estimate side of the system
// (core.Estimate, the query engine's point/batch/k-NN scoring) reduces to
// dot products over short dense rows; one body, DotBlockInto, computes
// every one of them. It unrolls the reduction 4-wide so the compiler
// keeps four independent accumulator chains in registers instead of
// serializing on one FP add per element.
//
// The reduction order is fixed — ((s0+s1)+(s2+s3)) plus a scalar tail —
// so results are deterministic for a given input, and every caller (Dot
// and so the point estimate and the engine's exact k-NN scan,
// DotRowsInto behind EstimateBatch, MulVecInto, and the k-NN index's
// leaves) scores through the same body and therefore agrees bitwise,
// down to the payload of a NaN.

// DotBlockInto scores a block of rows stored back to back against x:
// dst[r] = x · block[r·len(x) : (r+1)·len(x)] for every r < len(dst).
// block must hold exactly len(dst)·len(x) elements. A caller holding
// many contiguous rows (a k-NN leaf) scores them in one call instead of
// one Dot per row; each row is sliced to its exact length, so the loops
// index it without bounds checks. Rows of 8, the service's default
// dimension, take a fully unrolled path with the same reduction order.
func DotBlockInto(dst, block, x []float64) {
	n := len(x)
	if len(block) != len(dst)*n {
		panic(fmt.Sprintf("mat: DotBlockInto block %d want %d rows of %d", len(block), len(dst), n))
	}
	if n == 8 {
		x := x[:8:8]
		for r := range dst {
			y := block[r*8 : r*8+8 : r*8+8]
			var s0, s1, s2, s3 float64
			s0 += x[0] * y[0]
			s1 += x[1] * y[1]
			s2 += x[2] * y[2]
			s3 += x[3] * y[3]
			s0 += x[4] * y[4]
			s1 += x[5] * y[5]
			s2 += x[6] * y[6]
			s3 += x[7] * y[7]
			var s float64
			dst[r] = (s0 + s1) + (s2 + s3) + s
		}
		return
	}
	for r := range dst {
		y := block[r*n : r*n+n]
		var s0, s1, s2, s3 float64
		i := 0
		for ; i+4 <= n; i += 4 {
			xs, ys := x[i:i+4:i+4], y[i:i+4:i+4]
			s0 += xs[0] * ys[0]
			s1 += xs[1] * ys[1]
			s2 += xs[2] * ys[2]
			s3 += xs[3] * ys[3]
		}
		var s float64
		for ; i < n; i++ {
			s += x[i] * y[i]
		}
		dst[r] = (s0 + s1) + (s2 + s3) + s
	}
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
	DotBlockInto(dst, a.data, x)
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
		DotBlockInto(dst[i:i+1], row, x)
	}
}
