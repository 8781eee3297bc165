package harness

import (
	"context"
	"fmt"
	"math"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/server"
	"github.com/ides-go/ides/internal/solve"
	"github.com/ides-go/ides/internal/stats"
	"github.com/ides-go/ides/internal/telemetry"
	"github.com/ides-go/ides/internal/wire"
)

// ReplayWindow bounds which recorded report frames a replay feeds back:
// report records with TimeUnixNanos in [FromNanos, ToNanos) are
// replayed. Zero bounds are open (replay everything). The window also
// selects which recorded epoch summaries ReplayResult.Recorded carries.
type ReplayWindow struct {
	FromNanos int64
	ToNanos   int64
}

func (w ReplayWindow) contains(t int64) bool {
	if w.FromNanos != 0 && t < w.FromNanos {
		return false
	}
	if w.ToNanos != 0 && t >= w.ToNanos {
		return false
	}
	return true
}

// ReplayOverrides is the what-if knob set: each zero-valued field keeps
// the recorded configuration, so the zero value replays the run as it
// happened.
type ReplayOverrides struct {
	// Solver swaps the model-update strategy: "batch" or "sgd".
	Solver string
	// Algorithm swaps the factorization: "svd" or "nmf".
	Algorithm string
	// Dim changes the model dimensionality (0 keeps recorded).
	Dim int
	// Drift changes the drift threshold for corrective fits.
	Drift *float64
	// Seed changes the fitting seed.
	Seed *int64
}

// Any reports whether any override is set (i.e. the replay is a
// what-if rather than a reproduction).
func (o ReplayOverrides) Any() bool {
	return o.Solver != "" || o.Algorithm != "" || o.Dim != 0 || o.Drift != nil || o.Seed != nil
}

// ReplayResult is one replay's outcome: the effective configuration,
// what was fed back, the recorded epoch summaries inside the window
// (the "before"), and the replayed model's error summary against the
// last-observed measurement matrix (the "after").
type ReplayResult struct {
	// Config is the recorded server configuration.
	Config telemetry.ConfigRecord
	// Solver, Algorithm, Dim, Drift and Seed are the effective
	// (post-override) settings the replay ran with.
	Solver    solve.Kind
	Algorithm core.Algorithm
	Dim       int
	Drift     float64
	Seed      int64
	// Frames and Reports count the recorded report frames fed back and
	// the measurements inside them.
	Frames  int
	Reports int
	// Epoch, Fits and Revisions are the replayed server's final
	// lifecycle counters.
	Epoch     uint64
	Fits      uint64
	Revisions uint64
	// Recorded holds the epoch summaries the original run logged inside
	// the window, in log order.
	Recorded []telemetry.EpochSummaryRecord
	// Final summarizes the replayed model's modified relative error
	// (Eq. 10) over every measured landmark pair, after all windowed
	// reports are folded in.
	Final stats.Summary
}

// Replay boots a leader from the recorded configuration (plus
// overrides), hands it the window's recorded report frames through the
// dispatch a connection reaches, and measures the model it serves
// against the window's last-observed measurement matrix. With zero
// overrides it reproduces the recorded run's final accuracy; with
// overrides it answers "what if the run had used the other solver / a
// different dimension / a different drift threshold".
//
// Determinism matches the harness: frames are fed in recorded order
// with the leader's model pipeline drained after every frame, so the
// same records, window and overrides always produce the same result.
func Replay(ctx context.Context, recs []telemetry.Record, window ReplayWindow, over ReplayOverrides) (*ReplayResult, error) {
	res := &ReplayResult{}

	// The config record anchors everything; it must precede the reports.
	var frames []*wire.ReportRTT
	gotConfig := false
	for _, r := range recs {
		switch r := r.(type) {
		case *telemetry.ConfigRecord:
			if !gotConfig {
				res.Config = *r
				gotConfig = true
			}
		case *telemetry.ReportRecord:
			if !gotConfig {
				return nil, fmt.Errorf("replay: report record before any config record")
			}
			if window.contains(r.TimeUnixNanos) {
				frames = append(frames, &r.Report)
				res.Reports += len(r.Report.Entries)
			}
		case *telemetry.EpochSummaryRecord:
			if window.contains(r.TimeUnixNanos) {
				res.Recorded = append(res.Recorded, *r)
			}
		}
	}
	if !gotConfig {
		return nil, fmt.Errorf("replay: history holds no config record")
	}
	if len(frames) == 0 {
		return nil, fmt.Errorf("replay: no report records in the window")
	}
	res.Frames = len(frames)

	// Effective configuration: recorded values, then overrides.
	var err error
	if res.Algorithm, err = core.ParseAlgorithm(res.Config.Algorithm); err != nil {
		return nil, fmt.Errorf("replay: recorded config: %w", err)
	}
	if over.Algorithm != "" {
		if res.Algorithm, err = core.ParseAlgorithm(over.Algorithm); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	if res.Solver, err = solve.ParseKind(res.Config.Solver); err != nil {
		return nil, fmt.Errorf("replay: recorded config: %w", err)
	}
	if over.Solver != "" {
		if res.Solver, err = solve.ParseKind(over.Solver); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	res.Dim = res.Config.Dim
	if over.Dim != 0 {
		res.Dim = over.Dim
	}
	res.Drift = res.Config.DriftThreshold
	if over.Drift != nil {
		res.Drift = *over.Drift
	}
	res.Seed = int64(res.Config.Seed)
	if over.Seed != nil {
		res.Seed = *over.Seed
	}

	srv, err := server.New(leaderConfig(server.Config{
		Landmarks:           res.Config.Landmarks,
		Dim:                 res.Dim,
		Algorithm:           res.Algorithm,
		Seed:                res.Seed,
		Solver:              res.Solver,
		DriftEpochThreshold: res.Drift,
		BaseEpoch:           res.Config.BaseEpoch,
	}))
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	defer srv.Close()

	// obs accumulates the last-observed measurement per directed pair —
	// the ground truth the replayed model is scored against.
	n := len(res.Config.Landmarks)
	index := make(map[string]int, n)
	obs := make([][]float64, n)
	for i, lm := range res.Config.Landmarks {
		index[lm] = i
		obs[i] = make([]float64, n)
		for j := range obs[i] {
			obs[i][j] = math.NaN()
		}
	}

	for _, fr := range frames {
		if typ, reply := srv.Handle(wire.TypeReportRTT, fr.Encode(nil)); typ != wire.TypeAck {
			e, _ := wire.DecodeError(reply) // a leader's refusals are well-formed
			return nil, fmt.Errorf("replay: leader refused the report frame from %q: %v", fr.From, e)
		}
		for _, e := range fr.Entries {
			if to, ok := index[e.To]; ok {
				obs[index[fr.From]][to] = e.RTTMillis
			}
		}
		// Drain the leader after every frame, as the harness does, so
		// revisions and drift-triggered fits land at the same points.
		if err := srv.Quiesce(ctx); err != nil {
			return nil, fmt.Errorf("replay: quiesce: %w", err)
		}
	}

	// Fold in anything still pending and score the served model against
	// the window's last-observed matrix.
	if _, err := srv.Refit(ctx); err != nil {
		return nil, fmt.Errorf("replay: final model: %w", err)
	}
	if err := srv.Quiesce(ctx); err != nil {
		return nil, fmt.Errorf("replay: final quiesce: %w", err)
	}
	typ, reply := srv.Handle(wire.TypeGetModel, nil)
	model, err := wire.DecodeModel(reply)
	if typ != wire.TypeModel || err != nil {
		return nil, fmt.Errorf("replay: final model: %v reply (%v)", typ, err)
	}
	truth := func(i, j int) float64 { return obs[i][j] }
	est := func(i, j int) float64 { return mat.Dot(model.Landmarks[i].Out, model.Landmarks[j].In) }
	res.Final = stats.Summarize(stats.RelativeErrors(n, n, truth, est))

	lc := srv.LifecycleStats()
	res.Epoch, res.Fits, res.Revisions = lc.Epoch, lc.Fits, lc.Revisions
	return res, nil
}

// ReplayAll is Replay over an entire recorded history directory with no
// window: the common "reproduce the run" entry point.
func ReplayAll(ctx context.Context, dir string, over ReplayOverrides) (*ReplayResult, error) {
	recs, err := telemetry.ReadAll(dir)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return Replay(ctx, recs, ReplayWindow{}, over)
}
