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

// mulRows computes dst rows [lo,hi) of the product a*b: the one ikj
// kernel under MulInto and every worker of MulParallelInto.
func mulRows(dst, a, b *Dense, lo, hi int) {
	if a.cols != b.rows || dst.rows != a.rows || dst.cols != b.cols {
		panic("mat: mulRows shape mismatch")
	}
	n := b.cols
	for i := lo; i < hi; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		drow := dst.data[i*n : (i+1)*n]
		for j := range drow {
			drow[j] = 0
		}
		// ikj ordering: stream through b rows for cache friendliness.
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*n : (k+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}
