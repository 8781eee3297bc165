package server

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/lifecycle"
	"github.com/ides-go/ides/internal/solve"
	"github.com/ides-go/ides/internal/wire"
)

// ModelPipeline is the write side of the server: it validates landmark
// measurement reports and owns the model lifecycle — the solver, the
// delta queue, and the background refitter that publishes epoch-stamped
// immutable snapshots. Only a leader (or standalone server) has one;
// followers consume its output over the replication stream instead.
type ModelPipeline struct {
	refit   *lifecycle.Refitter
	lmIndex map[string]int
}

// newModelPipeline builds the solver and refitter for cfg. The hooks run
// on the refitter's worker goroutine: onSwap just before each snapshot
// becomes visible, onEvent after every lifecycle transition.
func newModelPipeline(cfg Config, now func() time.Time, lmIndex map[string]int,
	onSwap func(*lifecycle.Snapshot), onEvent func(lifecycle.Event), onError func(error)) (*ModelPipeline, error) {
	solver, err := solve.New(cfg.Solver, len(cfg.Landmarks), core.FitOptions{
		Dim:       cfg.Dim,
		Algorithm: cfg.Algorithm,
		Seed:      cfg.Seed,
		NMFIters:  cfg.NMFIters,
	}, solve.SGDOptions{})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	p := &ModelPipeline{lmIndex: lmIndex}
	p.refit = lifecycle.New(solver, lifecycle.Config{
		BaseEpoch:      cfg.BaseEpoch,
		MinInterval:    cfg.RefitMinInterval,
		Threshold:      cfg.RefitThreshold,
		DriftThreshold: cfg.DriftEpochThreshold,
		Now:            now,
		OnSwap:         onSwap,
		OnEvent:        onEvent,
		OnError:        onError,
	})
	return p, nil
}

// errUnknownLandmark rejects a report whose sender is not a configured
// landmark; the frontend maps it to wire.CodeNotLandmark.
type errUnknownLandmark struct{ addr string }

func (e errUnknownLandmark) Error() string { return fmt.Sprintf("unknown landmark %q", e.addr) }

// Ingest validates one measurement report and enqueues the accepted
// deltas for the solver. lmIndex is immutable after New, so validation
// takes no lock. The refitter applies the deltas off the request path:
// the batch solver just records them ahead of the next full fit, the SGD
// solver also folds them into the model at O(d) per measurement — either
// way no caller ever waits on a factorization. The accepted slice comes
// back so the caller can feed its observability sinks.
func (p *ModelPipeline) Ingest(rep *wire.ReportRTT) (accepted []solve.Delta, rejected int, err error) {
	from, ok := p.lmIndex[rep.From]
	if !ok {
		return nil, 0, errUnknownLandmark{rep.From}
	}
	accepted = make([]solve.Delta, 0, len(rep.Entries))
	for _, e := range rep.Entries {
		to, ok := p.lmIndex[e.To]
		if !ok || to == from {
			continue
		}
		if e.RTTMillis < 0 || math.IsNaN(e.RTTMillis) || math.IsInf(e.RTTMillis, 0) {
			continue
		}
		accepted = append(accepted, solve.Delta{From: from, To: to, Millis: e.RTTMillis})
	}
	if len(accepted) > 0 {
		p.refit.Deltas(accepted)
	}
	return accepted, len(rep.Entries) - len(accepted), nil
}

// Epoch returns the published epoch, 0 before the first fit.
func (p *ModelPipeline) Epoch() uint64 { return p.refit.Epoch() }

// Ready returns the published snapshot, waiting for the first fit when
// none has happened yet. See lifecycle.Refitter.Ready.
func (p *ModelPipeline) Ready(ctx context.Context) (*lifecycle.Snapshot, error) {
	return p.refit.Ready(ctx)
}

// Refresh synchronously folds all pending measurements into the model.
// See lifecycle.Refitter.Refresh.
func (p *ModelPipeline) Refresh(ctx context.Context) (*lifecycle.Snapshot, error) {
	return p.refit.Refresh(ctx)
}

// Quiesce drains the update pipeline without forcing unowed work. See
// lifecycle.Refitter.Quiesce.
func (p *ModelPipeline) Quiesce(ctx context.Context) (*lifecycle.Snapshot, error) {
	return p.refit.Quiesce(ctx)
}

// Stats returns the lifecycle counters.
func (p *ModelPipeline) Stats() lifecycle.Stats { return p.refit.Stats() }

// QueueDepth returns the number of measurement deltas queued for the
// solver.
func (p *ModelPipeline) QueueDepth() int { return p.refit.QueueDepth() }

// Close stops the background refitter. Safe to call twice.
func (p *ModelPipeline) Close() { p.refit.Close() }
