// Package optim provides the derivative-free Nelder–Mead ("Simplex
// Downhill") minimizer that the GNP system [13] uses to embed hosts in
// Euclidean space. The paper's Table 1 contrasts its slow convergence with
// the closed-form solves of IDES; this implementation is deliberately
// faithful to the classic algorithm rather than tuned beyond recognition.
package optim

import (
	"fmt"
	"math"
	"sort"
)

// Options configures NelderMead.
type Options struct {
	// MaxEvals caps objective evaluations. Default 400·dim.
	MaxEvals int
	// InitStep is the edge length of the initial simplex around x0.
	// Default 1, or |x0_i|·0.1 when that is larger.
	InitStep float64
}

func (o Options) withDefaults(dim int) Options {
	if o.MaxEvals <= 0 {
		o.MaxEvals = 400 * dim
	}
	if o.InitStep <= 0 {
		o.InitStep = 1
	}
	return o
}

// tolF stops the search when the simplex's objective spread falls below
// it, relative to the best value.
const tolF = 1e-10

// Result reports the outcome of a minimization.
type Result struct {
	X     []float64
	F     float64
	Evals int
	// Converged is true when the simplex collapsed below tolF rather than
	// running out of evaluations.
	Converged bool
}

// Standard Nelder–Mead coefficients.
const (
	nmReflect  = 1.0
	nmExpand   = 2.0
	nmContract = 0.5
	nmShrink   = 0.5
)

// NelderMead minimizes f starting from x0.
func NelderMead(f func([]float64) float64, x0 []float64, opts Options) Result {
	dim := len(x0)
	if dim == 0 {
		panic("optim: empty starting point")
	}
	opts = opts.withDefaults(dim)

	// Initial simplex: x0 plus a step along each axis.
	pts := make([][]float64, dim+1)
	vals := make([]float64, dim+1)
	evals := 0
	eval := func(x []float64) float64 {
		evals++
		v := f(x)
		if math.IsNaN(v) {
			// Treat NaN as "worst possible" so the simplex retreats.
			return math.Inf(1)
		}
		return v
	}
	for i := range pts {
		p := make([]float64, dim)
		copy(p, x0)
		if i > 0 {
			step := opts.InitStep
			if s := math.Abs(p[i-1]) * 0.1; s > step {
				step = s
			}
			p[i-1] += step
		}
		pts[i] = p
		vals[i] = eval(p)
	}

	order := make([]int, dim+1)
	centroid := make([]float64, dim)
	xr := make([]float64, dim)
	xe := make([]float64, dim)
	xc := make([]float64, dim)

	for evals < opts.MaxEvals {
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return vals[order[a]] < vals[order[b]] })
		best, worst, second := order[0], order[dim], order[dim-1]

		if math.Abs(vals[worst]-vals[best]) <= tolF*(math.Abs(vals[best])+tolF) {
			return Result{X: pts[best], F: vals[best], Evals: evals, Converged: true}
		}

		// Centroid of all but the worst point.
		for j := range centroid {
			centroid[j] = 0
		}
		for _, i := range order[:dim] {
			for j, v := range pts[i] {
				centroid[j] += v
			}
		}
		for j := range centroid {
			centroid[j] /= float64(dim)
		}

		// Reflection.
		for j := range xr {
			xr[j] = centroid[j] + nmReflect*(centroid[j]-pts[worst][j])
		}
		fr := eval(xr)
		switch {
		case fr < vals[best]:
			// Expansion.
			for j := range xe {
				xe[j] = centroid[j] + nmExpand*(xr[j]-centroid[j])
			}
			if fe := eval(xe); fe < fr {
				copy(pts[worst], xe)
				vals[worst] = fe
			} else {
				copy(pts[worst], xr)
				vals[worst] = fr
			}
		case fr < vals[second]:
			copy(pts[worst], xr)
			vals[worst] = fr
		default:
			// Contraction (outside if reflection helped, inside otherwise).
			if fr < vals[worst] {
				for j := range xc {
					xc[j] = centroid[j] + nmContract*(xr[j]-centroid[j])
				}
			} else {
				for j := range xc {
					xc[j] = centroid[j] - nmContract*(centroid[j]-pts[worst][j])
				}
			}
			fc := eval(xc)
			if fc < math.Min(fr, vals[worst]) {
				copy(pts[worst], xc)
				vals[worst] = fc
			} else {
				// Shrink toward the best vertex.
				for _, i := range order[1:] {
					for j := range pts[i] {
						pts[i][j] = pts[best][j] + nmShrink*(pts[i][j]-pts[best][j])
					}
					vals[i] = eval(pts[i])
				}
			}
		}
	}

	bi := 0
	for i, v := range vals {
		if v < vals[bi] {
			bi = i
		}
	}
	return Result{X: pts[bi], F: vals[bi], Evals: evals, Converged: false}
}

// Validate panics if the options are internally inconsistent; exported for
// callers that construct Options programmatically.
func (o Options) Validate() {
	if o.MaxEvals < 0 || o.InitStep < 0 {
		panic(fmt.Sprintf("optim: negative option in %+v", o))
	}
}
