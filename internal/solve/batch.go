package solve

import (
	"fmt"

	"github.com/ides-go/ides/internal/core"
)

// BatchSolver is the paper's model-update strategy: measurements
// accumulate in the landmark matrix and every model refresh is a full
// batch factorization through core.Fit (the factor.SVDFactor / NMF
// paths). Apply never produces a model — callers schedule Seed.
type BatchSolver struct {
	opts  core.FitOptions
	ms    *measurements
	model *core.Model
}

// NewBatch builds a BatchSolver for an m-landmark deployment. opts.Mask
// must be nil: the solver derives the mask from which pairs have been
// measured.
func NewBatch(numLandmarks int, opts core.FitOptions) (*BatchSolver, error) {
	if numLandmarks < 2 {
		return nil, fmt.Errorf("solve: need at least 2 landmarks, got %d", numLandmarks)
	}
	if opts.Mask != nil {
		return nil, fmt.Errorf("solve: FitOptions.Mask is managed by the solver, must be nil")
	}
	return &BatchSolver{opts: opts, ms: newMeasurements(numLandmarks)}, nil
}

// Seed runs a full factorization over every recorded measurement.
func (b *BatchSolver) Seed() (*core.Model, error) {
	model, err := b.ms.fit(b.opts)
	if err != nil {
		return nil, err
	}
	b.model = model
	return model, nil
}

// Apply records the deltas. A batch solver has no incremental path, so
// it always returns (nil, nil): the measurements surface at the next
// Seed.
func (b *BatchSolver) Apply(deltas []Delta) (*core.Model, error) {
	for _, dl := range deltas {
		b.ms.record(dl)
	}
	return nil, nil
}

// Drift is always 0: every published model is a fresh full fit.
func (b *BatchSolver) Drift() float64 { return 0 }

// Incremental reports false: Apply never produces a model.
func (b *BatchSolver) Incremental() bool { return false }

// ModelErrors implements ErrorSampler against the last seeded model.
func (b *BatchSolver) ModelErrors() []float64 { return b.ms.modelErrors(b.model) }
