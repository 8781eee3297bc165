package harness

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/lifecycle"
	"github.com/ides-go/ides/internal/solve"
	"github.com/ides-go/ides/internal/stats"
	"github.com/ides-go/ides/internal/telemetry"
)

// ReplayWindow bounds which recorded measurements a replay feeds back:
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
	// Frames and Reports count the report frames reconstructed from the
	// log and the individual measurements inside them.
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

// replayFrame is one reconstructed ReportRTT frame: the server stamps
// every measurement of a frame with one arrival time, so consecutive
// report records sharing (time, source) were one frame in the original
// run.
type replayFrame struct {
	from    int
	entries []telemetry.ReportRecord
}

// Replay feeds a recorded history window back through a fresh solver
// and refitter — a server's write side, driven directly — and measures
// the resulting model against the window's last-observed measurement
// matrix. With zero overrides it reproduces the recorded run's final
// accuracy; with overrides it answers "what if the run had used the
// other solver / a different dimension / a different drift threshold".
//
// Determinism matches the harness: reports are fed in recorded order
// with the refitter drained after every frame, so the same
// records, window and overrides always produce the same result.
func Replay(ctx context.Context, recs []telemetry.Record, window ReplayWindow, over ReplayOverrides) (*ReplayResult, error) {
	res := &ReplayResult{}

	// The config record anchors everything; it must precede the reports.
	var frames []replayFrame
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
			if !window.contains(r.TimeUnixNanos) {
				continue
			}
			res.Reports++
			n := len(frames)
			if n > 0 && frames[n-1].from == r.From &&
				frames[n-1].entries[0].TimeUnixNanos == r.TimeUnixNanos {
				frames[n-1].entries = append(frames[n-1].entries, *r)
				continue
			}
			frames = append(frames, replayFrame{from: r.From, entries: []telemetry.ReportRecord{*r}})
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

	landmarks := res.Config.Landmarks
	n := len(landmarks)
	if n < 2 {
		return nil, fmt.Errorf("replay: recorded config names %d landmarks, need at least 2", n)
	}
	for _, fr := range frames {
		if fr.from < 0 || fr.from >= n {
			return nil, fmt.Errorf("replay: report source index %d out of range [0,%d)", fr.from, n)
		}
		for _, e := range fr.entries {
			if e.To < 0 || e.To >= n {
				return nil, fmt.Errorf("replay: report target index %d out of range [0,%d)", e.To, n)
			}
		}
	}

	// The write side of a server without the server: the same solver and
	// refitter server.New builds, fed the deltas handleReport would
	// accept. As in the harness, every owed fit runs at the next loop
	// cycle, so the per-frame Quiesce below fully determines when model
	// updates land.
	solver, err := solve.New(res.Solver, n, core.FitOptions{
		Dim:       res.Dim,
		Algorithm: res.Algorithm,
		Seed:      res.Seed,
	}, solve.SGDOptions{})
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	refit := lifecycle.New(solver, lifecycle.Config{
		BaseEpoch:      res.Config.BaseEpoch,
		MinInterval:    time.Nanosecond,
		Threshold:      n * (n - 1),
		DriftThreshold: res.Drift,
	})
	defer refit.Close()

	// obs accumulates the last-observed measurement per directed pair —
	// the ground truth the replayed model is scored against.
	obs := make([][]float64, n)
	for i := range obs {
		obs[i] = make([]float64, n)
		for j := range obs[i] {
			obs[i][j] = math.NaN()
		}
	}

	for _, fr := range frames {
		deltas := make([]solve.Delta, 0, len(fr.entries))
		for _, e := range fr.entries {
			obs[fr.from][e.To] = e.Millis
			// What a server drops: a self-pair, an RTT ValidRTT refuses.
			if e.To != fr.from && solve.ValidRTT(e.Millis) {
				deltas = append(deltas, solve.Delta{From: fr.from, To: e.To, Millis: e.Millis})
			}
		}
		if len(deltas) > 0 {
			refit.Deltas(deltas)
		}
		// Drain the refitter after every frame, as the recording harness
		// does, so revision boundaries and drift-triggered fits land at
		// the same points every replay.
		if _, err := refit.Quiesce(ctx); err != nil {
			return nil, fmt.Errorf("replay: quiesce: %w", err)
		}
	}

	// Fold in anything still pending and score the final model against
	// the window's last-observed matrix.
	snap, err := refit.Refresh(ctx)
	if err != nil {
		return nil, fmt.Errorf("replay: final model: %w", err)
	}
	if _, err := refit.Quiesce(ctx); err != nil {
		return nil, fmt.Errorf("replay: final quiesce: %w", err)
	}
	truth := func(i, j int) float64 { return obs[i][j] }
	res.Final = stats.Summarize(stats.RelativeErrors(n, n, truth, snap.Model.EstimateLandmarks))

	lc := refit.Stats()
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
