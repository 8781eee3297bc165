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
// solved as SolveVectors does: exactly when the landmark vectors are well
// conditioned, damped along directions they barely resolve.
func (m *Model) SolveHost(dout, din []float64) (Vectors, error) {
	if len(dout) != m.NumLandmarks() || len(din) != m.NumLandmarks() {
		panic(fmt.Sprintf("core: distance vectors have %d/%d entries, want %d landmarks",
			len(dout), len(din), m.NumLandmarks()))
	}
	return SolveVectors(m.X, m.Y, dout, din)
}

// ErrTooFewObservations is returned by SolveHostSubset when fewer
// landmarks were measured than the model has dimensions.
var ErrTooFewObservations = errors.New("core: too few observations")

// SolveHostSubset computes the host's vectors from measurements to only the
// listed landmark indices (§5.2's relaxation, Eqs. 15–16). dout and din are
// parallel to idx; nnls selects the nonnegative solve (SolveVectorsNNLS).
// At least Dim() observations are needed for the problem to be well posed;
// fewer return ErrTooFewObservations rather than a wild extrapolation.
func (m *Model) SolveHostSubset(idx []int, dout, din []float64, nnls bool) (Vectors, error) {
	if len(idx) != len(dout) || len(idx) != len(din) {
		panic(fmt.Sprintf("core: subset lengths disagree: idx=%d dout=%d din=%d", len(idx), len(dout), len(din)))
	}
	if len(idx) < m.Dim() {
		return Vectors{}, fmt.Errorf("%w: %d for a %d-dimensional model (need k >= d)", ErrTooFewObservations, len(idx), m.Dim())
	}
	solve := SolveVectors
	if nnls {
		solve = SolveVectorsNNLS
	}
	return solve(m.X.SelectRows(idx), m.Y.SelectRows(idx), dout, din)
}

// placeRCond is τ, the cutoff on a reference matrix's spectrum below which
// placement damps instead of inverting: a singular value s < τ·s_max is
// weighted s/(τ·s_max)² rather than 1/s (mat.LeastSquares). References
// with condition number below 1/τ are solved exactly. Exactly d references
// in a d-dimensional model are the usual way to fall below it (Fig 7's
// spike at k = d); the value is measured on Fig 7 and the k-nodes and
// chaining ablations.
const placeRCond = 0.07

// SolveVectors solves the general placement problem against any k reference
// nodes with precomputed vectors (§5.2): refOut and refIn are k x d
// matrices of the references' outgoing and incoming vectors, and dout[i] /
// din[i] are the measured distances to / from reference i. References may
// be landmarks or previously placed ordinary hosts. Each side is one
// mat.LeastSquares solve at the cutoff placeRCond: the exact least-squares
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
		return Vectors{}, fmt.Errorf("core: solving outgoing vector%s: %w", how, err)
	}
	// Y_new minimizes Σ_i (din_i − X_i·U)²  ⇒  refOut · U = din.
	in, err := solve(refOut, din)
	if err != nil {
		return Vectors{}, fmt.Errorf("core: solving incoming vector%s: %w", how, err)
	}
	return Vectors{Out: out, In: in}, nil
}

// Placement holds solved vectors for a batch of ordinary hosts.
type Placement struct {
	// X and Y are h x d: row i holds host i's outgoing / incoming vector.
	X, Y *mat.Dense
}

// PlaceAll solves vectors for h hosts at once. dout and din are h x m:
// dout[i][l] is the distance from host i to landmark l, din[i][l] the
// distance from landmark l to host i. The batch formulation solves the
// same least-squares problems as SolveHost but decomposes Y and X once for
// all hosts — this is what makes IDES's model-building time in Table 1
// sub-second even with a thousand hosts.
func (m *Model) PlaceAll(dout, din *mat.Dense) (*Placement, error) {
	h, cols := dout.Dims()
	if cols != m.NumLandmarks() {
		panic(fmt.Sprintf("core: dout has %d columns, want %d landmarks", cols, m.NumLandmarks()))
	}
	if hi, ci := din.Dims(); hi != h || ci != cols {
		panic(fmt.Sprintf("core: din is %dx%d, want %dx%d", hi, ci, h, cols))
	}
	// refIn · Xᵀ = doutᵀ, one RHS column per host.
	xt, err := mat.LeastSquares(m.Y, dout.T(), placeRCond)
	if err != nil {
		return nil, fmt.Errorf("core: batch outgoing solve: %w", err)
	}
	yt, err := mat.LeastSquares(m.X, din.T(), placeRCond)
	if err != nil {
		return nil, fmt.Errorf("core: batch incoming solve: %w", err)
	}
	return &Placement{X: xt.T(), Y: yt.T()}, nil
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
