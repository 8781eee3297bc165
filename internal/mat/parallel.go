package mat

import (
	"runtime"
	"sync"
)

// parallelFlopThreshold is the approximate flop count above which matrix
// products are split across goroutines. Below it, goroutine startup costs
// more than it saves; the default covers matrices around 200x200x200.
const parallelFlopThreshold = 8 << 20

// MulParallel returns a*b, splitting row blocks across CPUs for large
// products. Results are bitwise identical to Mul: parallelism is across
// output rows, so each row's accumulation order is unchanged. Small
// products fall back to the serial kernel.
func MulParallel(a, b *Dense) *Dense {
	out := NewDense(a.Rows(), b.Cols())
	MulParallelInto(out, a, b)
	return out
}

// MulParallelInto computes dst = a*b with the same semantics as MulInto,
// in parallel for large inputs.
func MulParallelInto(dst, a, b *Dense) {
	m := a.Rows()
	flops := int64(m) * int64(a.Cols()) * int64(b.Cols())
	workers := runtime.GOMAXPROCS(0)
	if flops < parallelFlopThreshold || workers < 2 || m < 2*workers {
		MulInto(dst, a, b)
		return
	}
	if workers > m {
		workers = m
	}
	var wg sync.WaitGroup
	chunk := (m + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			mulRows(dst, a, b, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// mulRows computes dst rows [lo,hi) of the product a*b: the one kernel
// under MulInto and every worker of MulParallelInto. It fills dst in 2x4
// tiles whose eight sums stay in registers while k runs: each step loads
// six operands for eight products, where a row-at-a-time loop reads and
// writes memory three times per product. Every entry still sums
// a[i][k]*b[k][j] over ascending k from zero, so the result is the same,
// bit for bit, as the plain triple loop's.
func mulRows(dst, a, b *Dense, lo, hi int) {
	if a.cols != b.rows || dst.rows != a.rows || dst.cols != b.cols {
		panic("mat: mulRows shape mismatch")
	}
	p, n := a.cols, b.cols
	bd := b.data
	for i := lo; i < hi; i += 2 {
		i1 := i + 1
		if i1 == hi {
			i1 = i // an odd last row pairs with itself
		}
		a0 := a.data[i*p : (i+1)*p]
		a1 := a.data[i1*p : (i1+1)*p]
		d0 := dst.data[i*n : (i+1)*n]
		d1 := dst.data[i1*n : (i1+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for k, u := range a0 {
				v := a1[k]
				bk := bd[k*n+j : k*n+j+4]
				s00 += u * bk[0]
				s01 += u * bk[1]
				s02 += u * bk[2]
				s03 += u * bk[3]
				s10 += v * bk[0]
				s11 += v * bk[1]
				s12 += v * bk[2]
				s13 += v * bk[3]
			}
			d0[j], d0[j+1], d0[j+2], d0[j+3] = s00, s01, s02, s03
			d1[j], d1[j+1], d1[j+2], d1[j+3] = s10, s11, s12, s13
		}
		for ; j < n; j++ {
			var s0, s1 float64
			for k, u := range a0 {
				bv := bd[k*n+j]
				s0 += u * bv
				s1 += a1[k] * bv
			}
			d0[j], d1[j] = s0, s1
		}
	}
}
