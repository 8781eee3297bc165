package factor

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/ides-go/ides/internal/mat"
)

// NMFOptions configures nonnegative matrix factorization.
type NMFOptions struct {
	// Seed seeds the random nonnegative initialization.
	Seed int64
	// Mask, if non-nil, is an m x n 0/1 matrix where Mask[i][j]=1 marks
	// D[i][j] as observed. Missing entries are excluded from the objective
	// using the paper's modified update rules (Eqs. 8–9).
	Mask *mat.Dense
}

// NMFResult carries the factors plus convergence diagnostics.
type NMFResult struct {
	*Factors
	// FinalError is the squared-error objective at termination
	// (masked objective when a mask was supplied).
	FinalError float64
	// Rounds is the number of multiplicative update rounds run, a multiple
	// of nmfWindow. Below nmfMaxRounds the stopping rule ended the fit; at
	// nmfMaxRounds the cap did (a fit that meets the rule in its last
	// window reads the same and is counted as capped).
	Rounds int
}

// The stopping rule. The objective is evaluated every nmfWindow rounds
// (each evaluation is one m x n reconstruction); the fit stops once a
// window lowers it by no more than nmfTol of its value at the window's
// start, once it is at most nmfTol² of the observed entries' squared
// norm (a near-exact fit, whose objective keeps falling geometrically
// toward zero and so never meets the first test), or after nmfMaxRounds
// rounds. The paper's "two hundred iterations suffice to converge" does
// not hold on every start: the GNP landmark fit at seed 42 is still far
// from its minimum at 200 rounds. TestAblationNMFIterations in
// internal/experiments mirrors nmfMaxRounds as a literal.
const (
	nmfWindow    = 10
	nmfTol       = 1e-4
	nmfMaxRounds = 5000
)

// nmfEps guards denominators in the multiplicative updates; with
// nonnegative data and positive initialization the iterates stay positive,
// but zero columns in degenerate inputs could otherwise divide by zero.
const nmfEps = 1e-12

// NMF factors the nonnegative distance matrix d into nonnegative X·Yᵀ of
// the given rank by Lee–Seung multiplicative updates, which monotonically
// decrease the squared-error objective (Eq. 7), until they stop lowering
// it (the nmfTol rule above). All entries of d must be
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

	p := newNMFData(d, opts.Mask)
	var floor float64
	for _, v := range p.w.Data() {
		floor += v * v
	}
	floor *= nmfTol * nmfTol

	x, y := nmfInit(d, opts.Mask, dim, opts.Seed)
	res := &NMFResult{Factors: &Factors{X: x, Y: y}}
	obj := nmfObjective(d, opts.Mask, x, y)
	for res.Rounds < nmfMaxRounds {
		for i := 0; i < nmfWindow; i++ {
			nmfRound(p, x, y)
		}
		res.Rounds += nmfWindow
		prev := obj
		obj = nmfObjective(d, opts.Mask, x, y)
		if prev-obj <= nmfTol*prev || obj <= floor {
			break
		}
	}
	res.FinalError = obj
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

// nmfData holds the operands every round reads, built once per fit.
type nmfData struct {
	// w is D with its masked entries zeroed, wt its transpose.
	w, wt *mat.Dense
	// mask and maskT are the mask and its transpose, nil when every entry
	// is observed.
	mask, maskT *mat.Dense
}

func newNMFData(d, mask *mat.Dense) *nmfData {
	p := &nmfData{w: d, mask: mask}
	if mask != nil {
		m, n := d.Dims()
		p.w = mat.NewDense(m, n)
		for i, v := range mask.Data() {
			if v != 0 {
				p.w.Data()[i] = d.Data()[i]
			}
		}
		p.maskT = mask.T()
	}
	p.wt = p.w.T()
	return p
}

// nmfRound applies one update round, masked when p has a mask.
func nmfRound(p *nmfData, x, y *mat.Dense) {
	if p.mask == nil {
		nmfUpdateDense(p, x, y)
	} else {
		nmfUpdateMasked(p, x, y)
	}
}

// nmfUpdateDense applies one round of the standard Lee–Seung updates:
//
//	X_ia ← X_ia · (D·Y)_ia / (X·YᵀY)_ia
//	Y_ja ← Y_ja · (Dᵀ·X)_ja / (Y·XᵀX)_ja
//
// The d-sized products dominate the iteration cost and run on the
// parallel kernel (bitwise identical to the serial one).
func nmfUpdateDense(p *nmfData, x, y *mat.Dense) {
	dy := mat.MulParallel(p.w, y) // m x k
	yty := mat.MulATB(y, y)       // k x k
	xyty := mat.Mul(x, yty)       // m x k
	for i, v := range x.Data() {
		x.Data()[i] = v * dy.Data()[i] / (xyty.Data()[i] + nmfEps)
	}
	// Update Y with the fresh X.
	dtx := mat.MulParallel(p.wt, x) // n x k
	xtx := mat.MulATB(x, x)         // k x k
	yxtx := mat.Mul(y, xtx)         // n x k
	for i, v := range y.Data() {
		y.Data()[i] = v * dtx.Data()[i] / (yxtx.Data()[i] + nmfEps)
	}
}

// nmfUpdateMasked applies the paper's missing-data update rules (Eqs. 8–9),
// in which masked entries contribute to neither numerator nor denominator:
//
//	X_ia ← X_ia · (W·Y)_ia / (R·Y)_ia
//	Y_ja ← Y_ja · (Wᵀ·X)_ja / (Rᵀ·X)_ja
//
// where R is the current reconstruction XYᵀ with its masked entries
// zeroed, as W is D's. A zeroed entry adds an exact zero to its sum, so
// each product equals the sum over observed entries alone.
func nmfUpdateMasked(p *nmfData, x, y *mat.Dense) {
	r := mat.MulABT(x, y) // m x n
	maskOut(r, p.mask)
	num := mat.MulParallel(p.w, y) // m x k
	den := mat.MulParallel(r, y)
	for i := range x.Data() {
		x.Data()[i] *= num.Data()[i] / (den.Data()[i] + nmfEps)
	}
	// Update Y against the reconstruction with the fresh X.
	rt := mat.MulABT(y, x) // n x m
	maskOut(rt, p.maskT)
	num = mat.MulParallel(p.wt, x) // n x k
	den = mat.MulParallel(rt, x)
	for i := range y.Data() {
		y.Data()[i] *= num.Data()[i] / (den.Data()[i] + nmfEps)
	}
}

// maskOut zeroes the entries of r where mask is zero.
func maskOut(r, mask *mat.Dense) {
	for i, v := range mask.Data() {
		if v == 0 {
			r.Data()[i] = 0
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
