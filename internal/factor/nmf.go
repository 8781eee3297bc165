package factor

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/ides-go/ides/internal/mat"
)

// NMFOptions configures nonnegative matrix factorization.
type NMFOptions struct {
	// Iters is the number of multiplicative update rounds. The paper
	// reports that "two hundred iterations suffice to converge to a local
	// minimum"; the default follows it.
	Iters int
	// Seed seeds the random nonnegative initialization.
	Seed int64
	// Mask, if non-nil, is an m x n 0/1 matrix where Mask[i][j]=1 marks
	// D[i][j] as observed. Missing entries are excluded from the objective
	// using the paper's modified update rules (Eqs. 8–9).
	Mask *mat.Dense
	// TrackError records the squared-error objective after every iteration
	// in the returned NMFResult. It costs one m x n reconstruction per
	// round, so it is off by default.
	TrackError bool
}

const defaultNMFIters = 200

func (o NMFOptions) withDefaults() NMFOptions {
	if o.Iters <= 0 {
		o.Iters = defaultNMFIters
	}
	return o
}

// NMFResult carries the factors plus convergence diagnostics.
type NMFResult struct {
	*Factors
	// FinalError is the squared-error objective at termination
	// (masked objective when a mask was supplied).
	FinalError float64
	// History holds the objective after each round when TrackError was set.
	History []float64
}

// nmfEps guards denominators in the multiplicative updates; with
// nonnegative data and positive initialization the iterates stay positive,
// but zero columns in degenerate inputs could otherwise divide by zero.
const nmfEps = 1e-12

// NMF factors the nonnegative distance matrix d into nonnegative X·Yᵀ of
// the given rank by Lee–Seung multiplicative updates, which monotonically
// decrease the squared-error objective (Eq. 7). All entries of d must be
// >= 0. With a mask, the modified rules (Eqs. 8–9) fit observed entries
// only — the property that lets IDES build models from incomplete landmark
// measurements.
func NMF(d *mat.Dense, dim int, opts NMFOptions) (*NMFResult, error) {
	m, n := d.Dims()
	if dim <= 0 {
		panic(fmt.Sprintf("factor: rank %d must be positive", dim))
	}
	if mn := minInt(m, n); dim > mn {
		dim = mn
	}
	opts = opts.withDefaults()
	for i := 0; i < m; i++ {
		for _, v := range d.Row(i) {
			if v < 0 {
				return nil, fmt.Errorf("nmf: negative distance %v; NMF requires nonnegative input", v)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("nmf: non-finite distance %v", v)
			}
		}
	}
	if opts.Mask != nil {
		mr, mc := opts.Mask.Dims()
		if mr != m || mc != n {
			panic(fmt.Sprintf("factor: mask shape %dx%d does not match data %dx%d", mr, mc, m, n))
		}
	}

	x, y := nmfInit(d, opts.Mask, dim, opts.Seed)
	res := &NMFResult{Factors: &Factors{X: x, Y: y}}
	for it := 0; it < opts.Iters; it++ {
		if opts.Mask == nil {
			nmfUpdateDense(d, x, y)
		} else {
			nmfUpdateMasked(d, opts.Mask, x, y)
		}
		if opts.TrackError {
			res.History = append(res.History, nmfObjective(d, opts.Mask, x, y))
		}
	}
	res.FinalError = nmfObjective(d, opts.Mask, x, y)
	return res, nil
}

// nmfInit draws strictly positive factors scaled so the initial product has
// the same mean magnitude as the observed data, which keeps early updates
// well-conditioned. Masked entries must not influence anything, including
// the initialization scale.
func nmfInit(d, mask *mat.Dense, dim int, seed int64) (x, y *mat.Dense) {
	m, n := d.Dims()
	var sum float64
	var cnt int
	for i, v := range d.Data() {
		if mask != nil && mask.Data()[i] == 0 {
			continue
		}
		sum += v
		cnt++
	}
	meanVal := 1.0
	if cnt > 0 && sum > 0 {
		meanVal = sum / float64(cnt)
	}
	scale := math.Sqrt(meanVal / float64(dim))
	rng := rand.New(rand.NewSource(seed))
	x = mat.NewDense(m, dim)
	y = mat.NewDense(n, dim)
	for i := range x.Data() {
		x.Data()[i] = scale * (0.1 + 0.9*rng.Float64())
	}
	for i := range y.Data() {
		y.Data()[i] = scale * (0.1 + 0.9*rng.Float64())
	}
	return x, y
}

// nmfUpdateDense applies one round of the standard Lee–Seung updates:
//
//	X_ia ← X_ia · (D·Y)_ia / (X·YᵀY)_ia
//	Y_ja ← Y_ja · (Dᵀ·X)_ja / (Y·XᵀX)_ja
func nmfUpdateDense(d, x, y *mat.Dense) {
	// Update X. The d-sized products dominate the iteration cost and run
	// on the parallel kernel (bitwise identical to the serial one).
	dy := mat.MulParallel(d, y) // m x k
	yty := mat.MulATB(y, y)     // k x k
	xyty := mat.Mul(x, yty)     // m x k
	for i, v := range x.Data() {
		x.Data()[i] = v * dy.Data()[i] / (xyty.Data()[i] + nmfEps)
	}
	// Update Y with the fresh X.
	dtx := mat.MulATB(d, x) // n x k
	xtx := mat.MulATB(x, x) // k x k
	yxtx := mat.Mul(y, xtx) // n x k
	for i, v := range y.Data() {
		y.Data()[i] = v * dtx.Data()[i] / (yxtx.Data()[i] + nmfEps)
	}
}

// nmfUpdateMasked applies the paper's missing-data update rules (Eqs. 8–9):
// masked entries contribute to neither numerator nor denominator.
func nmfUpdateMasked(d, mask, x, y *mat.Dense) {
	m, n := d.Dims()
	k := x.Cols()
	est := mat.MulABT(x, y) // current reconstruction, m x n

	// X_ia ← X_ia · Σ_j D_ij M_ij Y_ja / Σ_j (XYᵀ)_ij M_ij Y_ja
	num := make([]float64, k)
	den := make([]float64, k)
	for i := 0; i < m; i++ {
		for a := 0; a < k; a++ {
			num[a], den[a] = 0, 0
		}
		drow, mrow, erow := d.Row(i), mask.Row(i), est.Row(i)
		for j := 0; j < n; j++ {
			if mrow[j] == 0 {
				continue
			}
			yrow := y.Row(j)
			dv, ev := drow[j], erow[j]
			for a := 0; a < k; a++ {
				num[a] += dv * yrow[a]
				den[a] += ev * yrow[a]
			}
		}
		xrow := x.Row(i)
		for a := 0; a < k; a++ {
			xrow[a] *= num[a] / (den[a] + nmfEps)
		}
	}

	// Refresh the reconstruction with the updated X before updating Y.
	est = mat.MulABT(x, y)
	for j := 0; j < n; j++ {
		for a := 0; a < k; a++ {
			num[a], den[a] = 0, 0
		}
		for i := 0; i < m; i++ {
			if mask.Row(i)[j] == 0 {
				continue
			}
			xrow := x.Row(i)
			dv, ev := d.Row(i)[j], est.Row(i)[j]
			for a := 0; a < k; a++ {
				num[a] += dv * xrow[a]
				den[a] += ev * xrow[a]
			}
		}
		yrow := y.Row(j)
		for a := 0; a < k; a++ {
			yrow[a] *= num[a] / (den[a] + nmfEps)
		}
	}
}

// nmfObjective computes Σ (D_ij − (XYᵀ)_ij)², restricted to observed
// entries when mask is non-nil.
func nmfObjective(d, mask, x, y *mat.Dense) float64 {
	est := mat.MulABT(x, y)
	var obj float64
	m, _ := d.Dims()
	for i := 0; i < m; i++ {
		drow, erow := d.Row(i), est.Row(i)
		var mrow []float64
		if mask != nil {
			mrow = mask.Row(i)
		}
		for j := range drow {
			if mrow != nil && mrow[j] == 0 {
				continue
			}
			diff := drow[j] - erow[j]
			obj += diff * diff
		}
	}
	return obj
}
