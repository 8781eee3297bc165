package solve

import (
	"fmt"
	"math"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/mat"
)

// SGDOptions tunes the incremental gradient updates.
type SGDOptions struct {
	// Rate is the step size of each normalized gradient update, in
	// (0, 1]: 1 jumps the touched rows all the way to reproducing the
	// new measurement, smaller values average it against the model.
	// Default 0.3.
	Rate float64
	// Reg is the per-update L2 weight decay applied to the touched rows,
	// DMFSGD's regularizer against runaway factors. Default 1e-4.
	Reg float64
}

func (o SGDOptions) withDefaults() SGDOptions {
	if o.Rate <= 0 {
		o.Rate = 0.3
	}
	if o.Reg == 0 {
		o.Reg = 1e-4
	}
	return o
}

// Normalize validates the options and fills in defaults: Rate must lie
// in [0, 1] (zero selects 0.3) and Reg must be nonnegative (zero
// selects 1e-4). Both NewSGD and the decentralized peer loop go through
// this, so the two modes reject the same configurations.
func (o SGDOptions) Normalize() (SGDOptions, error) {
	if o.Rate < 0 || o.Rate > 1 {
		// The normalized step absorbs Rate of the residual; above 1 every
		// update overshoots the measurement and the factors oscillate, and
		// a negative rate ascends the loss. Zero selects the default.
		return o, fmt.Errorf("solve: SGD rate %v out of (0, 1]", o.Rate)
	}
	if o.Reg < 0 {
		// A negative weight decay amplifies the touched rows every step;
		// zero selects the documented 1e-4 default, so there is no valid
		// reading of a negative value.
		return o, fmt.Errorf("solve: SGD regularization %v must be nonnegative", o.Reg)
	}
	return o.withDefaults(), nil
}

// SGDSolver maintains the landmark factorization by DMFSGD-style
// stochastic gradient updates: it seeds from the same full batch fit as
// BatchSolver, then folds each new measurement (i, j, d) into rows X_i
// and Y_j by a regularized, norm-scaled gradient step on the squared
// error (X_i·Y_j − d)² — O(d) per measurement, no refactorization.
// Between full corrective fits, Apply publishes fresh immutable models
// by cloning the working factors (O(m·d) per batch, amortized over the
// batch).
type SGDSolver struct {
	opts core.FitOptions
	sgd  SGDOptions
	ms   *measurements

	// x, y are the working factors the gradient steps mutate; they are
	// cloned into every published model, never shared with one.
	x, y *mat.Dense
	// seedX, seedY freeze the factors of the last full fit, the baseline
	// Drift measures displacement from.
	seedX, seedY         *mat.Dense
	seedXNorm, seedYNorm float64

	model *core.Model
}

// NewSGD builds an SGDSolver for an m-landmark deployment. opts
// parameterizes the seeding batch fits (opts.Mask must be nil; with
// Algorithm core.NMF the gradient steps are projected to keep the
// factors nonnegative); sgd tunes the incremental updates.
func NewSGD(numLandmarks int, opts core.FitOptions, sgd SGDOptions) (*SGDSolver, error) {
	if numLandmarks < 2 {
		return nil, fmt.Errorf("solve: need at least 2 landmarks, got %d", numLandmarks)
	}
	if opts.Mask != nil {
		return nil, fmt.Errorf("solve: FitOptions.Mask is managed by the solver, must be nil")
	}
	norm, err := sgd.Normalize()
	if err != nil {
		return nil, err
	}
	return &SGDSolver{opts: opts, sgd: norm, ms: newMeasurements(numLandmarks)}, nil
}

// Seed runs a full batch factorization, adopts its factors as the
// working copies, and resets drift to 0.
func (s *SGDSolver) Seed() (*core.Model, error) {
	model, err := s.ms.fit(s.opts)
	if err != nil {
		return nil, err
	}
	s.model = model
	s.x = model.X.Clone()
	s.y = model.Y.Clone()
	s.seedX = model.X.Clone()
	s.seedY = model.Y.Clone()
	s.seedXNorm = mat.FrobeniusNorm(s.seedX)
	s.seedYNorm = mat.FrobeniusNorm(s.seedY)
	return model, nil
}

// Apply records the deltas and, once seeded, folds each into the
// touched rows by one gradient step, returning a fresh immutable model.
// Before the first Seed it only records and returns (nil, nil).
func (s *SGDSolver) Apply(deltas []Delta) (*core.Model, error) {
	stepped := false
	for _, dl := range deltas {
		accepted, mirrored := s.ms.record(dl)
		if !accepted || s.model == nil {
			// A delta the matrix refused must not touch the model either.
			continue
		}
		s.step(dl.From, dl.To, dl.Millis)
		if mirrored {
			// The reverse direction was adopted into the matrix too;
			// keep the model consistent with it.
			s.step(dl.To, dl.From, dl.Millis)
		}
		stepped = true
	}
	if !stepped {
		return nil, nil
	}
	model := &core.Model{X: s.x.Clone(), Y: s.y.Clone(), Algorithm: s.model.Algorithm}
	s.model = model
	return model, nil
}

// sgdEps guards the norm denominators of the normalized step when a row
// has collapsed to zero.
const sgdEps = 1e-9

// step is one regularized gradient update on rows X_i and Y_j for the
// measurement d(i→j) = v:
//
//	e      = X_i·Y_j − v
//	X_i   −= Rate·(e·Y_j/‖Y_j‖² + Reg·X_i)
//	Y_j   −= Rate·(e·X_i/‖X_i‖² + Reg·Y_j)   (X_i before its update)
//
// Scaling each step by the partner row's squared norm (a Kaczmarz-style
// normalized step) makes Rate a unitless fraction of the residual,
// stable across RTT magnitudes; the plain DMFSGD step would need a
// learning rate tuned to the data scale. Under core.NMF the updated
// rows are projected onto the nonnegative orthant, preserving the
// algorithm's nonnegative-prediction guarantee.
func (s *SGDSolver) step(i, j int, v float64) {
	xi := s.x.Row(i)
	yj := s.y.Row(j)
	e := mat.Dot(xi, yj) - v
	nx := mat.Dot(xi, xi)
	ny := mat.Dot(yj, yj)
	rate, reg := s.sgd.Rate, s.sgd.Reg
	clamp := s.opts.Algorithm == core.NMF
	for k := range xi {
		xk := xi[k]
		xi[k] -= rate * (e*yj[k]/(ny+sgdEps) + reg*xk)
		yj[k] -= rate * (e*xk/(nx+sgdEps) + reg*yj[k])
		if clamp {
			if xi[k] < 0 {
				xi[k] = 0
			}
			if yj[k] < 0 {
				yj[k] = 0
			}
		}
	}
}

// PeerStep is the decentralized half of the DMFSGD update: host i folds
// one measured distance d = RTT(i, j) into its OWN coordinate rows
// (xi, yi) using a gossip partner j's rows (xj, yj) as constants — the
// partner applies the mirror-image update on its side with the roles
// swapped, so together the two peers perform the same symmetric update
// SGDSolver.step performs centrally, without either touching the
// other's state. Two Kaczmarz-normalized gradient steps run, one per
// directed prediction that involves host i's rows:
//
//	e1  = xi·yj − d      xi −= Rate·(e1·yj/‖yj‖² + Reg·xi)
//	e2  = xj·yi − d      yi −= Rate·(e2·xj/‖xj‖² + Reg·yi)
//
// The two sub-updates share no variables, so peers that exchange
// pre-update rows converge on the same trajectory regardless of which
// side steps first. All four rows must have equal length. clamp
// projects the updated rows onto the nonnegative orthant (core.NMF's
// invariant). o must come from SGDOptions.Normalize — PeerStep applies
// no defaulting of its own.
//
// The return value is the L2 displacement of (xi, yi) relative to their
// pre-step norm — the per-step drift signal the gossip telemetry
// reports.
func PeerStep(xi, yi, xj, yj []float64, d float64, o SGDOptions, clamp bool) float64 {
	e1 := mat.Dot(xi, yj) - d
	e2 := mat.Dot(xj, yi) - d
	nyj := mat.Dot(yj, yj)
	nxj := mat.Dot(xj, xj)
	norm := mat.Dot(xi, xi) + mat.Dot(yi, yi)
	rate, reg := o.Rate, o.Reg
	var disp float64
	for k := range xi {
		nv := xi[k] - rate*(e1*yj[k]/(nyj+sgdEps)+reg*xi[k])
		if clamp && nv < 0 {
			nv = 0
		}
		dk := nv - xi[k]
		disp += dk * dk
		xi[k] = nv
	}
	for k := range yi {
		nv := yi[k] - rate*(e2*xj[k]/(nxj+sgdEps)+reg*yi[k])
		if clamp && nv < 0 {
			nv = 0
		}
		dk := nv - yi[k]
		disp += dk * dk
		yi[k] = nv
	}
	return math.Sqrt(disp / (norm + sgdEps))
}

// PeerEstimate is the symmetric peer-to-peer distance estimate between
// hosts i and j from their exchanged coordinate rows: the mean of the
// two directed predictions xi·yj and xj·yi. With asymmetric routing the
// two directions genuinely differ; averaging matches RTT's two-way
// semantics.
func PeerEstimate(xi, yi, xj, yj []float64) float64 {
	return (mat.Dot(xi, yj) + mat.Dot(xj, yi)) / 2
}

// Drift reports the relative Frobenius displacement of the working
// factors from the last full fit — how far incremental updates have
// moved the model hosts' solved vectors no longer track. O(m·d).
func (s *SGDSolver) Drift() float64 {
	if s.model == nil || s.seedX == nil {
		return 0
	}
	dx := displacement(s.x, s.seedX) / (s.seedXNorm + sgdEps)
	dy := displacement(s.y, s.seedY) / (s.seedYNorm + sgdEps)
	return (dx + dy) / 2
}

// Incremental reports true: Apply produces models once seeded.
func (s *SGDSolver) Incremental() bool { return true }

func displacement(a, b *mat.Dense) float64 {
	ad, bd := a.Data(), b.Data()
	var sum float64
	for i := range ad {
		d := ad[i] - bd[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// ModelErrors implements ErrorSampler against the latest published
// model (seeded or revised).
func (s *SGDSolver) ModelErrors() []float64 { return s.ms.modelErrors(s.model) }
