package harness

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/solve"
	"github.com/ides-go/ides/internal/telemetry"
	"github.com/ides-go/ides/internal/wire"
)

// recordRun boots a cluster with a history store attached, runs the
// standard scenario plus one extra report round, and returns the
// history directory.
func recordRun(t *testing.T, solver solve.Kind) string {
	t.Helper()
	dir := t.TempDir()
	hist, err := telemetry.OpenStore(telemetry.StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		NumLandmarks: 5,
		NumHosts:     4,
		Dim:          3,
		Seed:         7,
		Solver:       solver,
		History:      hist,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReportRound(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := hist.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestReplayReproducesRecordedRun(t *testing.T) {
	dir := recordRun(t, solve.Batch)
	ctx := context.Background()

	res, err := ReplayAll(ctx, dir, ReplayOverrides{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver != solve.Batch || res.Dim != 3 || res.Seed != 7 {
		t.Fatalf("effective config %+v not the recorded one", res)
	}
	if res.Reports == 0 || res.Frames == 0 {
		t.Fatalf("nothing replayed: %+v", res)
	}
	if res.Final.N != 5*4 {
		t.Fatalf("final summary over %d pairs, want 20", res.Final.N)
	}
	if len(res.Recorded) == 0 {
		t.Fatal("no recorded epoch summaries carried over")
	}
	// The recorded run's last epoch summary and the replayed final model
	// score the same measurements with the same seeded fit; the replay
	// must land on the same accuracy (tolerance covers summation order).
	last := res.Recorded[len(res.Recorded)-1]
	if math.Abs(last.MeanAbsRel-res.Final.Mean) > 1e-9 ||
		math.Abs(last.MaxAbsRel-res.Final.Max) > 1e-9 {
		t.Fatalf("replayed accuracy diverged from recording:\n recorded mean=%v max=%v\n replayed mean=%v max=%v",
			last.MeanAbsRel, last.MaxAbsRel, res.Final.Mean, res.Final.Max)
	}

	// Same records, same overrides → bit-identical result.
	again, err := ReplayAll(ctx, dir, ReplayOverrides{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatalf("replay is not deterministic:\n first %+v\n again %+v", res, again)
	}
}

func TestReplayWhatIfAlternateSolver(t *testing.T) {
	dir := recordRun(t, solve.Batch)
	ctx := context.Background()

	drift := 0.5
	over := ReplayOverrides{Solver: "sgd", Drift: &drift}
	if !over.Any() {
		t.Fatal("overrides should register as a what-if")
	}
	res, err := ReplayAll(ctx, dir, over)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver != solve.SGD || res.Drift != 0.5 {
		t.Fatalf("overrides not applied: %+v", res)
	}
	if res.Final.N == 0 {
		t.Fatal("what-if produced no scored pairs")
	}
	// The SGD path publishes incremental revisions the batch run never
	// had; the what-if must reflect the alternate lifecycle.
	if res.Revisions == 0 {
		t.Fatalf("sgd what-if published no revisions: %+v", res)
	}

	again, err := ReplayAll(ctx, dir, over)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatal("what-if replay is not deterministic")
	}
}

func TestReplayWindow(t *testing.T) {
	dir := recordRun(t, solve.Batch)
	recs, err := telemetry.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Find the timestamp that splits the two report rounds: the first
	// fit event sits between them.
	var split int64
	for _, r := range recs {
		if ev, ok := r.(*telemetry.EventRecord); ok && ev.Kind == telemetry.EventFit {
			split = ev.TimeUnixNanos
			break
		}
	}
	if split == 0 {
		t.Fatal("no fit event recorded")
	}
	full, err := Replay(context.Background(), recs, ReplayWindow{}, ReplayOverrides{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := Replay(context.Background(), recs, ReplayWindow{ToNanos: split}, ReplayOverrides{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Reports >= full.Reports {
		t.Fatalf("window did not narrow the replay: %d vs %d reports", first.Reports, full.Reports)
	}
	if first.Final.N == 0 {
		t.Fatal("windowed replay scored nothing")
	}
}

// TestReplayKeepsFrameBoundaries: with the store's clock frozen every
// frame carries one timestamp, and two frames in a row from one
// landmark must still replay as two frames — an SGD leader publishes a
// revision per frame, and the replay must count what the leader did.
func TestReplayKeepsFrameBoundaries(t *testing.T) {
	dir := t.TempDir()
	frozen := time.Unix(0, 1_700_000_000_000_000_000)
	hist, err := telemetry.OpenStore(telemetry.StoreConfig{Dir: dir, Now: func() time.Time { return frozen }})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{NumLandmarks: 5, NumHosts: 2, Dim: 3, Seed: 3, Solver: solve.SGD, History: hist})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := c.agents[0].ReportOnce(ctx); err != nil {
			t.Fatal(err)
		}
		if err := c.Srv.Quiesce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	recorded := c.Srv.LifecycleStats()
	c.Close()
	if err := hist.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := ReplayAll(ctx, dir, ReplayOverrides{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 7 || res.Fits != recorded.Fits || res.Revisions != recorded.Revisions {
		t.Fatalf("replayed %d frames, %d fits, %d revisions; recorded 7 frames, %d fits, %d revisions",
			res.Frames, res.Fits, res.Revisions, recorded.Fits, recorded.Revisions)
	}
}

// TestReplayRefusesUnknownSource: a hand-built log whose frame comes
// from an address outside the recorded landmark set is refused by the
// leader's own admission, and the error names the address.
func TestReplayRefusesUnknownSource(t *testing.T) {
	recs := []telemetry.Record{
		&telemetry.ConfigRecord{Dim: 2, Algorithm: "svd", Solver: "batch", Landmarks: []string{"a", "b", "c"}},
		&telemetry.ReportRecord{TimeUnixNanos: 1, Report: wire.ReportRTT{From: "intruder", Entries: []wire.RTTEntry{
			{To: "a", RTTMillis: 10},
		}}},
	}
	_, err := Replay(context.Background(), recs, ReplayWindow{}, ReplayOverrides{})
	if err == nil || !strings.Contains(err.Error(), `"intruder"`) {
		t.Fatalf("Replay = %v, want an error naming \"intruder\"", err)
	}
}
