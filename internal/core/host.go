package core

import (
	"errors"
	"fmt"

	"github.com/ides-go/ides/internal/mat"
)

// SolveHost computes an ordinary host's vectors from its measured distances
// to all m landmarks: dout[i] is the distance host→landmark i, din[i] the
// distance landmark i→host. This is the closed-form least squares of
// Eqs. 13–14,
//
//	X_new = (D_out · Y)(YᵀY)⁻¹
//	Y_new = (D_in  · X)(XᵀX)⁻¹
//
// solved as SolveVectors(m.X, m.Y, dout, din) does, bit for bit: exactly
// when the landmark vectors are well conditioned, damped along directions
// they barely resolve. The inverses depend on the model alone, so Y and X
// are decomposed on the model's first placement and every later host only
// applies the two factors. Replacing X or Y decomposes again. The solve is
// unconstrained on NMF models too: NNLS would move Fig 6's NMF cells.
func (m *Model) SolveHost(dout, din []float64) (Vectors, error) {
	if len(dout) != m.NumLandmarks() || len(din) != m.NumLandmarks() {
		panic(fmt.Sprintf("core: distance vectors have %d/%d entries, want %d landmarks",
			len(dout), len(din), m.NumLandmarks()))
	}
	f := m.factors()
	if f.err != nil {
		return Vectors{}, f.err
	}
	return Vectors{Out: f.out.SolveVec(dout), In: f.in.SolveVec(din)}, nil
}

// placeFactors is the part of placing a host against a model that depends
// on the model alone: the least-squares factors of Y (for the outgoing
// vector) and X (for the incoming one) at placeRCond, or the error
// SolveVectors would return for the model's references. x and y are the
// matrices it was computed from.
type placeFactors struct {
	x, y    *mat.Dense
	out, in *mat.LeastSquaresFactor
	err     error
}

// factors returns the model's placement factors, decomposing Y and X on
// first use and again whenever X or Y has been replaced by another matrix.
// Concurrent first callers may each decompose; the first to publish wins
// and the rest adopt its factors, so every caller solves against the same
// ones.
func (m *Model) factors() *placeFactors {
	x, y := m.X, m.Y
	old := m.place.Load()
	if old != nil && old.x == x && old.y == y {
		return old
	}
	f := &placeFactors{x: x, y: y}
	var err error
	if f.out, err = mat.FactorLeastSquares(y, placeRCond); err != nil {
		f.err = solveError("outgoing", "", err)
	} else if f.in, err = mat.FactorLeastSquares(x, placeRCond); err != nil {
		f.err = solveError("incoming", "", err)
	}
	if !m.place.CompareAndSwap(old, f) {
		if cur := m.place.Load(); cur != nil && cur.x == x && cur.y == y {
			return cur
		}
	}
	return f
}

// ErrTooFewObservations is returned by SolveHostSubset when fewer
// landmarks were measured than the model has dimensions.
var ErrTooFewObservations = errors.New("core: too few observations")

// SolveHostSubset computes a joining host's vectors from measurements to the
// listed landmarks only (§5.2, Eqs. 15–16); dout and din are parallel to idx.
// The model's Algorithm picks the solve: SolveVectorsNNLS on NMF, so the
// host's estimates are nonnegative (§5.1), else SolveVectors. Fewer than
// Dim() observations return ErrTooFewObservations, not an extrapolation.
func (m *Model) SolveHostSubset(idx []int, dout, din []float64) (Vectors, error) {
	if len(idx) != len(dout) || len(idx) != len(din) {
		panic(fmt.Sprintf("core: subset lengths disagree: idx=%d dout=%d din=%d", len(idx), len(dout), len(din)))
	}
	if len(idx) < m.Dim() {
		return Vectors{}, fmt.Errorf("%w: %d for a %d-dimensional model (need k >= d)", ErrTooFewObservations, len(idx), m.Dim())
	}
	solve := SolveVectors
	if m.Algorithm == NMF {
		solve = SolveVectorsNNLS
	}
	return solve(m.X.SelectRows(idx), m.Y.SelectRows(idx), dout, din)
}

// placeRCond is τ, the cutoff on a reference matrix's spectrum below which
// placement damps instead of inverting: a singular value s < τ·s_max is
// weighted s/(τ·s_max)² rather than 1/s (mat.LeastSquaresFactor).
// References with condition number below 1/τ are solved exactly. Exactly
// d references in a d-dimensional model are the usual way to fall below
// it (Fig 7's spike at k = d); the value is measured on Fig 7 and the
// k-nodes and chaining ablations.
const placeRCond = 0.07

// SolveVectors solves the general placement problem against any k reference
// nodes with precomputed vectors (§5.2): refOut and refIn are k x d
// matrices of the references' outgoing and incoming vectors, and dout[i] /
// din[i] are the measured distances to / from reference i. References may
// be landmarks or previously placed ordinary hosts. Each side is one
// mat.SolveVec at the cutoff placeRCond: the exact least-squares
// (minimum-norm if k < d) solution of Eqs. 15–16 when the references are
// well conditioned, damped along the directions they barely resolve.
func SolveVectors(refOut, refIn *mat.Dense, dout, din []float64) (Vectors, error) {
	return solveVectors(func(a *mat.Dense, b []float64) ([]float64, error) {
		return mat.SolveVec(a, b, placeRCond)
	}, "", refOut, refIn, dout, din)
}

// SolveVectorsExact is SolveVectors without the cutoff: the paper's
// closed form of Eqs. 15–16, the pseudo-inverse however ill conditioned
// the references are. Fig 7 plots it beside the placement the service uses.
func SolveVectorsExact(refOut, refIn *mat.Dense, dout, din []float64) (Vectors, error) {
	return solveVectors(func(a *mat.Dense, b []float64) ([]float64, error) {
		return mat.SolveVec(a, b, mat.ExactRCond(a))
	}, " (exact)", refOut, refIn, dout, din)
}

// SolveVectorsNNLS is SolveVectors with nonnegativity constraints on the
// host vectors. When the landmark model came from NMF, this guarantees the
// host's predicted distances are nonnegative (§5.1). The paper found no
// significant accuracy difference versus the unconstrained solve;
// experiments.AblationHostSolveNNLS checks that claim.
func SolveVectorsNNLS(refOut, refIn *mat.Dense, dout, din []float64) (Vectors, error) {
	return solveVectors(mat.NNLS, " (nnls)", refOut, refIn, dout, din)
}

// solveVectors is both placements: solve is the least-squares routine,
// how names it in an error.
func solveVectors(solve func(*mat.Dense, []float64) ([]float64, error), how string, refOut, refIn *mat.Dense, dout, din []float64) (Vectors, error) {
	k, d := refOut.Dims()
	if ki, di := refIn.Dims(); ki != k || di != d {
		panic(fmt.Sprintf("core: reference matrices disagree: %dx%d vs %dx%d", k, d, ki, di))
	}
	if len(dout) != k || len(din) != k {
		panic(fmt.Sprintf("core: distance vectors have %d/%d entries, want %d references", len(dout), len(din), k))
	}
	// X_new minimizes Σ_i (dout_i − U·Y_i)²  ⇒  refIn · U = dout.
	out, err := solve(refIn, dout)
	if err != nil {
		return Vectors{}, solveError("outgoing", how, err)
	}
	// Y_new minimizes Σ_i (din_i − X_i·U)²  ⇒  refOut · U = din.
	in, err := solve(refOut, din)
	if err != nil {
		return Vectors{}, solveError("incoming", how, err)
	}
	return Vectors{Out: out, In: in}, nil
}

// solveError reports a failed placement solve: side is "outgoing" or
// "incoming", how names the solver as in solveVectors.
func solveError(side, how string, err error) error {
	return fmt.Errorf("core: solving %s vector%s: %w", side, how, err)
}

// Placement holds solved vectors for a batch of ordinary hosts.
type Placement struct {
	// X and Y are h x d: row i holds host i's outgoing / incoming vector.
	X, Y *mat.Dense
}

// PlaceAll solves vectors for h hosts at once. dout and din are h x m:
// dout[i][l] is the distance from host i to landmark l, din[i][l] the
// distance from landmark l to host i. Row i is SolveHost's answer for
// host i: the same apply of the factors of Y and X the model keeps from
// its first placement, so the decomposition is paid once per model, not
// per host or per call — this is what makes IDES's
// model-building time in Table 1 sub-second even with a thousand hosts.
func (m *Model) PlaceAll(dout, din *mat.Dense) (*Placement, error) {
	h, cols := dout.Dims()
	if cols != m.NumLandmarks() {
		panic(fmt.Sprintf("core: dout has %d columns, want %d landmarks", cols, m.NumLandmarks()))
	}
	if hi, ci := din.Dims(); hi != h || ci != cols {
		panic(fmt.Sprintf("core: din is %dx%d, want %dx%d", hi, ci, h, cols))
	}
	f := m.factors()
	if f.err != nil {
		return nil, f.err
	}
	p := &Placement{X: mat.NewDense(h, m.Dim()), Y: mat.NewDense(h, m.Dim())}
	for i := range h {
		f.out.SolveVecInto(p.X.Row(i), dout.Row(i))
		f.in.SolveVecInto(p.Y.Row(i), din.Row(i))
	}
	return p, nil
}

// NumHosts returns the number of placed hosts.
func (p *Placement) NumHosts() int { return p.X.Rows() }

// Vectors returns host i's vector pair (shared storage).
func (p *Placement) Vectors(i int) Vectors {
	return Vectors{Out: p.X.Row(i), In: p.Y.Row(i)}
}

// Estimate returns the modeled distance from placed host i to placed host j.
func (p *Placement) Estimate(i, j int) float64 {
	return mat.Dot(p.X.Row(i), p.Y.Row(j))
}
