package mat

import (
	"fmt"
	"math"
)

// NNLS solves the nonnegative least-squares problem
//
//	minimize ||A*x - b||₂  subject to  x ≥ 0
//
// by the Lawson–Hanson active-set method. It is used for the optional
// nonnegativity-constrained ordinary-host solve discussed in §5.1 of the
// paper (which guarantees nonnegative predicted distances when the landmark
// model came from NMF).
func NNLS(a *Dense, b []float64) ([]float64, error) {
	m, n := a.Dims()
	if len(b) != m {
		panic(fmt.Sprintf("mat: NNLS length %d != rows %d", len(b), m))
	}
	x := make([]float64, n)
	passive := make([]bool, n)
	resid := make([]float64, m)
	copy(resid, b)

	w := make([]float64, n)
	const tol = 1e-10
	maxOuter := 3 * n
	if maxOuter < 30 {
		maxOuter = 30
	}

	for outer := 0; outer < maxOuter; outer++ {
		// Gradient of the active (zero) set: w = Aᵀ(b - A x).
		computeGradient(a, resid, w)
		j, wmax := -1, tol
		for i := 0; i < n; i++ {
			if !passive[i] && w[i] > wmax {
				wmax = w[i]
				j = i
			}
		}
		if j < 0 {
			break // KKT conditions satisfied.
		}
		passive[j] = true

		// Inner loop: solve the unconstrained problem on the passive set and
		// step back if any passive coordinate would go negative. The solve
		// is exact, because termination rests on the KKT conditions of the
		// true least-squares optimum.
		for inner := 0; inner <= 2*n; inner++ {
			idx := passiveIndices(passive)
			ap := a.SelectCols(idx)
			z, err := SolveVec(ap, b, ExactRCond(ap))
			if err != nil {
				return nil, fmt.Errorf("nnls: %w", err)
			}
			minZ := math.Inf(1)
			for _, v := range z {
				if v < minZ {
					minZ = v
				}
			}
			if minZ > tol {
				for i := range x {
					x[i] = 0
				}
				for k, i := range idx {
					x[i] = z[k]
				}
				break
			}
			// Move x toward z until the first passive coordinate hits zero.
			alpha := math.Inf(1)
			for k, i := range idx {
				if z[k] <= tol {
					if d := x[i] - z[k]; d > 0 {
						if r := x[i] / d; r < alpha {
							alpha = r
						}
					}
				}
			}
			if math.IsInf(alpha, 1) {
				alpha = 0
			}
			for k, i := range idx {
				x[i] += alpha * (z[k] - x[i])
				if x[i] <= tol {
					x[i] = 0
					passive[i] = false
				}
			}
		}
		// Refresh the residual r = b - A x.
		ax := MulVec(a, x)
		for i := range resid {
			resid[i] = b[i] - ax[i]
		}
	}
	return x, nil
}

func computeGradient(a *Dense, resid, w []float64) {
	n := a.Cols()
	for j := 0; j < n; j++ {
		w[j] = 0
	}
	for i, rv := range resid {
		if rv == 0 {
			continue
		}
		row := a.Row(i)
		for j, av := range row {
			w[j] += av * rv
		}
	}
}

func passiveIndices(passive []bool) []int {
	var idx []int
	for i, p := range passive {
		if p {
			idx = append(idx, i)
		}
	}
	return idx
}
