// Package solve defines the model-update strategies behind the landmark
// factorization: how the m x m landmark distance matrix becomes — and
// stays — a fitted IDES model as measurements churn.
//
// The paper's service model refits the factorization periodically (§5.1):
// every refresh is a full batch fit, O(m²·d) work even when a single
// measurement changed. DMFSGD (Liao et al., PAPERS.md) observes that the
// same X·Yᵀ model can be maintained by per-measurement stochastic
// gradient updates at O(d) cost per measurement. This package captures
// both strategies behind one Solver interface:
//
//   - BatchSolver is the paper's strategy: Apply only records
//     measurements; every model refresh is a full factorization (Seed)
//     through core.Fit — the existing factor.SVDFactor / factor.NMF
//     paths.
//   - SGDSolver seeds through a BatchSolver's fit, then folds each new
//     measurement into the touched X/Y rows by regularized gradient
//     steps, publishing fresh models between (now much rarer) full
//     corrective fits.
//
// DMFSGD's update is written once: halfStep is the row update, and
// SGDSolver's step and the gossip peers' PeerStep are each two of them,
// so the central and the decentralized modes step alike bit for bit.
//
// A Solver owns the observed landmark matrix: callers feed it Delta
// batches and ask it to Seed or Apply; internal/lifecycle.Refitter
// drives those calls and publishes the resulting models as snapshots.
// Solvers are NOT safe for concurrent use — the Refitter makes every
// call from its one loop goroutine. Models returned by Seed and Apply are
// immutable: their storage is never written again by later calls, so
// they may be published to lock-free readers.
package solve

import (
	"fmt"
	"math"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/stats"
)

// Delta is one accepted landmark measurement: the RTT from landmark
// From to landmark To, in milliseconds. Indices follow the server's
// landmark ordering.
type Delta struct {
	From, To int
	Millis   float64
}

// maxRTTMillis is about 17 minutes: far above any real round trip, far
// below where a fit's squared norms overflow.
const maxRTTMillis = 1e6

// ValidRTT reports whether ms is an RTT a model may fold in, from a
// report, a delta, a replayed record or a gossip exchange. NaN fails.
func ValidRTT(ms float64) bool { return ms >= 0 && ms <= maxRTTMillis }

// Solver maintains the landmark factorization across measurement churn.
// Implementations own the observed landmark matrix; they need not be
// safe for concurrent use (the lifecycle refitter calls them from one
// goroutine).
type Solver interface {
	// Seed runs a full batch factorization over every measurement
	// recorded so far and resets accumulated drift — O(m²·d) work. It
	// fails when too few pairs have been measured for the model to be
	// determined, or when the matrix has holes an SVD cannot fit around.
	Seed() (*core.Model, error)
	// Apply records a batch of measurement deltas and, when the
	// implementation supports incremental updates and has been seeded,
	// folds them into the model at O(d) per delta. It returns the
	// refreshed model, or (nil, nil) when the deltas were recorded but
	// only a full Seed can surface them (BatchSolver always; SGDSolver
	// before its first Seed, or when it rejected every delta). The
	// refitter goes by this result alone: a model is published as a
	// revision, nil counts the deltas toward the next Seed. Returned
	// models are immutable.
	Apply(deltas []Delta) (*core.Model, error)
	// Drift reports how far incremental updates have moved the factors
	// since the last Seed, as a fraction of the seeded factors' norm.
	// Always 0 for batch-only solvers.
	Drift() float64
	// ModelErrors returns the modified relative error (paper Eq. 10) of
	// every measured off-diagonal landmark pair under the current model,
	// or nil before the first model exists. The refitter attaches it to
	// the telemetry event of each full fit.
	ModelErrors() []float64
}

// Kind names a Solver implementation, for flags and configs.
type Kind int

const (
	// Batch refits the full factorization per model refresh (the
	// paper's strategy; the default).
	Batch Kind = iota
	// SGD maintains the model by per-measurement gradient updates
	// between full corrective fits (DMFSGD's strategy).
	SGD
)

// String returns the kind's flag spelling.
func (k Kind) String() string {
	switch k {
	case Batch:
		return "batch"
	case SGD:
		return "sgd"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind parses a -solver flag value.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "batch":
		return Batch, nil
	case "sgd":
		return SGD, nil
	default:
		return 0, fmt.Errorf("solve: unknown solver %q (want batch or sgd)", s)
	}
}

// New builds a Solver of the given kind for an m-landmark deployment.
// opts parameterizes the batch fits both kinds run (opts.Mask is managed
// internally and must be nil); sgd tunes the incremental updates and is
// ignored by Batch.
func New(kind Kind, numLandmarks int, opts core.FitOptions, sgd SGDOptions) (Solver, error) {
	switch kind {
	case Batch:
		return NewBatch(numLandmarks, opts)
	case SGD:
		return NewSGD(numLandmarks, opts, sgd)
	default:
		return nil, fmt.Errorf("solve: unknown solver kind %d", int(kind))
	}
}

// measurements is the observed landmark matrix shared by all solvers:
// NaN marks a pair never measured. RTT is treated as symmetric until
// the reverse direction is measured independently, mirroring the
// server's historical report semantics.
type measurements struct {
	m        int
	d        *mat.Dense // NaN = not yet measured
	observed int        // off-diagonal entries measured (mirrors included)
}

func newMeasurements(m int) *measurements {
	d := mat.NewDense(m, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i != j {
				d.Set(i, j, math.NaN())
			}
		}
	}
	return &measurements{m: m, d: d}
}

// record stores one delta, mirroring it onto the reverse direction when
// that direction has never been measured. It reports whether the delta
// was accepted and whether the mirror was written; callers must feed
// rejected deltas to nothing else. Out-of-range and diagonal deltas, and
// RTTs ValidRTT refuses, are rejected (the server validates before it
// forwards, this is defense in depth).
func (ms *measurements) record(dl Delta) (accepted, mirrored bool) {
	if dl.From < 0 || dl.From >= ms.m || dl.To < 0 || dl.To >= ms.m || dl.From == dl.To {
		return false, false
	}
	if !ValidRTT(dl.Millis) {
		return false, false
	}
	if math.IsNaN(ms.d.At(dl.From, dl.To)) {
		ms.observed++
	}
	ms.d.Set(dl.From, dl.To, dl.Millis)
	if math.IsNaN(ms.d.At(dl.To, dl.From)) {
		ms.d.Set(dl.To, dl.From, dl.Millis)
		ms.observed++
		return true, true
	}
	return true, false
}

// modelErrors scores model against every measured off-diagonal pair,
// returning the modified relative error (Eq. 10) per pair. nil when no
// model exists yet.
func (ms *measurements) modelErrors(model *core.Model) []float64 {
	if model == nil {
		return nil
	}
	return stats.RelativeErrors(ms.m, ms.m, ms.d.At, model.EstimateLandmarks)
}

// materialize validates measurement density and produces the (dense,
// mask) pair a batch fit consumes: missing entries become zeros covered
// by a mask, or a nil mask when the matrix is complete. Every landmark
// needs at least dim observations for its vectors to be determined.
func (ms *measurements) materialize(dim int, alg core.Algorithm) (d, mask *mat.Dense, err error) {
	m := ms.m
	if ms.observed < m*dim && ms.observed < m*(m-1) {
		return nil, nil, fmt.Errorf("solve: only %d of %d landmark pairs measured", ms.observed, m*(m-1))
	}
	complete := ms.observed == m*(m-1)
	if !complete && alg != core.NMF {
		return nil, nil, fmt.Errorf("solve: landmark matrix incomplete; SVD cannot fit around holes (configure NMF, §4.2)")
	}
	d = mat.NewDense(m, m)
	if !complete {
		mask = mat.NewDense(m, m)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i == j {
				if mask != nil {
					mask.Set(i, j, 1)
				}
				continue
			}
			v := ms.d.At(i, j)
			if math.IsNaN(v) {
				continue
			}
			d.Set(i, j, v)
			if mask != nil {
				mask.Set(i, j, 1)
			}
		}
	}
	return d, mask, nil
}

// fit runs the shared batch factorization both solver kinds seed from.
func (ms *measurements) fit(opts core.FitOptions) (*core.Model, error) {
	d, mask, err := ms.materialize(opts.DimFor(ms.m), opts.Algorithm)
	if err != nil {
		return nil, err
	}
	opts.Mask = mask
	return core.Fit(d, opts)
}
