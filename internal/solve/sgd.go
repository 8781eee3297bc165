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

// Normalize validates the options and fills in defaults: Rate must lie
// in [0, 1] (zero selects 0.3) and Reg must be nonnegative (zero
// selects 1e-4). Both NewSGD and the decentralized peer loop go through
// this, so the two modes reject the same configurations.
func (o SGDOptions) Normalize() (SGDOptions, error) {
	if !(o.Rate >= 0 && o.Rate <= 1) {
		// The normalized step absorbs Rate of the residual; above 1 every
		// update overshoots the measurement and the factors oscillate, and
		// a negative rate ascends the loss. Zero selects the default. The
		// test is written so that NaN fails it too.
		return o, fmt.Errorf("solve: SGD rate %v out of (0, 1]", o.Rate)
	}
	if !(o.Reg >= 0 && o.Reg <= math.MaxFloat64) {
		// A negative weight decay amplifies the touched rows every step;
		// zero selects the documented 1e-4 default, so there is no valid
		// reading of a negative value. NaN and +Inf turn every stepped
		// row into NaN.
		return o, fmt.Errorf("solve: SGD regularization %v must be finite and nonnegative", o.Reg)
	}
	if o.Rate == 0 {
		o.Rate = 0.3
	}
	if o.Reg == 0 {
		o.Reg = 1e-4
	}
	return o, nil
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
	// batch records the measurements, runs the seeding fits and holds
	// the latest published model (seeded or revised). It is a field, not
	// an embedding: BatchSolver.Apply records without stepping.
	batch BatchSolver
	sgd   SGDOptions

	// x, y are the working factors the gradient steps mutate; they are
	// cloned into every published model, never shared with one. prev
	// holds X_i's pre-step values for Y_j's half of a step.
	x, y *mat.Dense
	prev []float64
	// seedX, seedY freeze the factors of the last full fit, the baseline
	// Drift measures displacement from.
	seedX, seedY         *mat.Dense
	seedXNorm, seedYNorm float64
}

// NewSGD builds an SGDSolver for an m-landmark deployment. opts
// parameterizes the seeding batch fits (opts.Mask must be nil; with
// Algorithm core.NMF the gradient steps are projected to keep the
// factors nonnegative); sgd tunes the incremental updates.
func NewSGD(numLandmarks int, opts core.FitOptions, sgd SGDOptions) (*SGDSolver, error) {
	b, err := NewBatch(numLandmarks, opts)
	if err != nil {
		return nil, err
	}
	norm, err := sgd.Normalize()
	if err != nil {
		return nil, err
	}
	return &SGDSolver{batch: *b, sgd: norm}, nil
}

// Seed runs a full batch factorization, adopts its factors as the
// working copies, and resets drift to 0.
func (s *SGDSolver) Seed() (*core.Model, error) {
	model, err := s.batch.Seed()
	if err != nil {
		return nil, err
	}
	s.x = model.X.Clone()
	s.y = model.Y.Clone()
	s.prev = make([]float64, model.Dim())
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
		accepted, mirrored := s.batch.ms.record(dl)
		if !accepted || s.batch.model == nil {
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
	model := &core.Model{X: s.x.Clone(), Y: s.y.Clone(), Algorithm: s.batch.model.Algorithm}
	s.batch.model = model
	return model, nil
}

// sgdEps guards the norm denominators of the normalized step when a row
// has collapsed to zero.
const sgdEps = 1e-9

// halfStep is the one row update of DMFSGD's Kaczmarz-normalized step:
// for the residual e of a prediction own·partner (or partner·own),
//
//	own −= Rate·(e·partner/‖partner‖² + Reg·own)
//
// projected onto the nonnegative orthant when clamp is set. partner is
// read only and must not share storage with own, and must be at least
// as long. It returns disp plus own's squared displacement, so callers
// chain the halves of a step through one running sum.
//
// Scaling by the partner row's squared norm makes Rate a unitless
// fraction of the residual, stable across RTT magnitudes; the plain
// DMFSGD step would need a learning rate tuned to the data scale.
func halfStep(own, partner []float64, e float64, o SGDOptions, clamp bool, disp float64) float64 {
	np := mat.Dot(partner, partner)
	rate, reg := o.Rate, o.Reg
	partner = partner[:len(own)]
	for k, v := range own {
		nv := v - rate*(e*partner[k]/(np+sgdEps)+reg*v)
		if clamp && nv < 0 {
			nv = 0
		}
		dk := nv - v
		disp += dk * dk
		own[k] = nv
	}
	return disp
}

// step is one regularized gradient update on rows X_i and Y_j for the
// measurement d(i→j) = v: with e = X_i·Y_j − v, X_i takes a halfStep
// against Y_j, then Y_j one against X_i's pre-step values. The row
// update is halfStep, the same one PeerStep runs on each side of a
// gossip exchange, so the central and the decentralized solver step
// alike bit for bit. Under core.NMF the updated rows are projected onto
// the nonnegative orthant, preserving the algorithm's
// nonnegative-prediction guarantee.
func (s *SGDSolver) step(i, j int, v float64) {
	xi := s.x.Row(i)
	yj := s.y.Row(j)
	e := mat.Dot(xi, yj) - v
	clamp := s.batch.opts.Algorithm == core.NMF
	copy(s.prev, xi)
	halfStep(xi, yj, e, s.sgd, clamp, 0)
	halfStep(yj, s.prev, e, s.sgd, clamp, 0)
}

// PeerStep is the decentralized half of the DMFSGD update: host i folds
// one measured distance d = RTT(i, j) into its OWN coordinate rows
// (xi, yi) using a gossip partner j's rows (xj, yj) as constants — the
// partner applies the mirror-image update on its side with the roles
// swapped, so together the two peers perform the update SGDSolver.step
// performs centrally for (i→j) and (j→i), without either touching the
// other's state. It is two halfSteps, one per directed prediction that
// involves host i's rows:
//
//	e1  = xi·yj − d      xi −= Rate·(e1·yj/‖yj‖² + Reg·xi)
//	e2  = xj·yi − d      yi −= Rate·(e2·xj/‖xj‖² + Reg·yi)
//
// The two sub-updates share no variables, so peers that exchange
// pre-update rows converge on the same trajectory regardless of which
// side steps first. All four rows must have equal length, and the own
// rows must not share storage with the partner rows (the partner rows
// may alias each other). clamp projects the updated rows onto the
// nonnegative orthant (core.NMF's invariant). o must come from
// SGDOptions.Normalize — PeerStep applies no defaulting of its own.
//
// The return value is the L2 displacement of (xi, yi) relative to their
// pre-step norm — the per-step drift signal the gossip telemetry
// reports.
func PeerStep(xi, yi, xj, yj []float64, d float64, o SGDOptions, clamp bool) float64 {
	e1 := mat.Dot(xi, yj) - d
	e2 := mat.Dot(xj, yi) - d
	norm := mat.Dot(xi, xi) + mat.Dot(yi, yi)
	disp := halfStep(xi, yj, e1, o, clamp, 0)
	disp = halfStep(yi, xj, e2, o, clamp, disp)
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
	if s.seedX == nil {
		return 0
	}
	dx := displacement(s.x, s.seedX) / (s.seedXNorm + sgdEps)
	dy := displacement(s.y, s.seedY) / (s.seedYNorm + sgdEps)
	return (dx + dy) / 2
}

func displacement(a, b *mat.Dense) float64 {
	ad, bd := a.Data(), b.Data()
	var sum float64
	for i := range ad {
		d := ad[i] - bd[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// ModelErrors scores the latest published model (seeded or revised).
func (s *SGDSolver) ModelErrors() []float64 { return s.batch.ModelErrors() }
