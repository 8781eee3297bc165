package harness

import (
	"context"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/solve"
)

// Documented accuracy gates (Fig. 2 reproduction bounds, also asserted
// by the solver conformance suite): the served system's modified
// relative error must stay under these for a healthy cluster.
const (
	gateMedian = 0.30
	gateP90    = 1.0
)

func TestClusterBootServesAccurateEstimates(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c, err := New(Config{NumLandmarks: 8, NumHosts: 12, Dim: 6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if got := c.ServedEpoch(); got == 0 {
		t.Fatal("no model served after Start")
	}
	acc, err := c.MeasureAccuracy(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Answered != acc.Queried {
		t.Fatalf("answered %d of %d queries", acc.Answered, acc.Queried)
	}
	if acc.Median > gateMedian || acc.P90 > gateP90 {
		t.Fatalf("boot accuracy %v exceeds gates (median %v, p90 %v)", acc.Summary, gateMedian, gateP90)
	}
}

// partitionOutcome is everything the partition/heal scenario asserts
// on; runs with the same seed must produce identical values.
type partitionOutcome struct {
	bootEpoch       uint64
	bootMedian      float64
	bootP90         float64
	partitionOK     int // landmarks still reporting during the cut
	duringSurvivors int
	duringMedian    float64
	duringAnswered  int
	healedEpoch     uint64
	finalMedian     float64
	finalP90        float64
	finalSurvivors  int
}

// runPartitionScenario drives the acceptance scenario:
//
//  1. boot a cluster on the SGD solver and check baseline accuracy;
//  2. partition a minority of landmarks AND shift every route's
//     latency (the outage reroutes traffic) — queries must keep being
//     served from the last snapshot;
//  3. heal; fresh measurement rounds fold the new RTTs into the model
//     until accumulated drift crosses the threshold and a corrective
//     refit bumps the epoch;
//  4. hosts re-join (routes changed, so they re-measure) and accuracy
//     must converge back under the documented gates — against the NEW
//     ground truth.
func runPartitionScenario(t *testing.T, seed int64) partitionOutcome {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	c, err := New(Config{
		NumLandmarks:        9,
		NumHosts:            12,
		Dim:                 6,
		Algorithm:           core.SVD,
		Solver:              solve.SGD,
		DriftEpochThreshold: 0.05,
		Seed:                seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}

	var out partitionOutcome
	out.bootEpoch = c.ServedEpoch()
	boot, err := c.MeasureAccuracy(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	out.bootMedian, out.bootP90 = boot.Median, boot.P90

	// Partition a minority of landmarks (3 of 9).
	if _, err := c.PartitionLandmarks(3); err != nil {
		t.Fatal(err)
	}
	// Routes shift while the partition is up: every topology latency
	// stretches 60%.
	if err := c.Net.SetLatencyScale(1.6); err != nil {
		t.Fatal(err)
	}

	// The majority keeps measuring and reporting; the minority cannot
	// reach the server.
	ok, err := c.ReportRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	out.partitionOK = ok

	// Queries keep being served from the last snapshot: every host
	// still gets answers, and (routes just shifted under it) the model
	// still reflects the OLD world.
	out.duringSurvivors = c.Survivors(ctx)
	during, err := c.MeasureAccuracy(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	out.duringMedian = during.Median
	out.duringAnswered = during.Answered

	// Heal. Fresh rounds fold the shifted RTTs in; drift crosses the
	// threshold and a corrective fit bumps the epoch.
	c.Net.Heal()
	for r := 0; r < 4; r++ {
		if _, err := c.ReportRound(ctx); err != nil {
			t.Fatal(err)
		}
	}
	epoch, err := c.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	out.healedEpoch = epoch

	// Routes changed, so hosts re-join with fresh measurements (the
	// client's own epoch recovery re-solves old RTTs; a route change
	// needs a re-measure, same as production).
	if _, err := c.BootstrapAll(ctx); err != nil {
		t.Fatal(err)
	}
	final, err := c.MeasureAccuracy(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	out.finalMedian, out.finalP90 = final.Median, final.P90
	out.finalSurvivors = c.Survivors(ctx)
	return out
}

// TestScenarioPartitionHealConverges is the acceptance scenario:
// partition a minority of landmarks → queries keep serving from the
// last snapshot; heal → the drift-triggered refit converges the system
// back under the documented error bounds; and the whole run is
// deterministic — the same seed reproduces the same assertion values.
func TestScenarioPartitionHealConverges(t *testing.T) {
	out := runPartitionScenario(t, 42)

	if out.bootEpoch == 0 {
		t.Fatal("no model after boot")
	}
	if out.bootMedian > gateMedian || out.bootP90 > gateP90 {
		t.Fatalf("boot accuracy median=%v p90=%v exceeds gates", out.bootMedian, out.bootP90)
	}
	if out.partitionOK != 6 {
		t.Fatalf("landmarks reporting during partition = %d, want the majority 6", out.partitionOK)
	}
	if out.duringSurvivors != 12 {
		t.Fatalf("only %d/12 hosts answered during the partition; queries must keep serving", out.duringSurvivors)
	}
	if out.duringAnswered == 0 {
		t.Fatal("no estimates served during the partition")
	}
	// During the cut the served model still describes the pre-shift
	// world while ground truth moved 60%: errors must show the
	// staleness (≈0.6 relative error), proving answers come from the
	// last snapshot rather than from magic.
	if out.duringMedian < 0.2 {
		t.Fatalf("during-partition median error %v; expected stale-snapshot error after the route shift", out.duringMedian)
	}
	if out.healedEpoch <= out.bootEpoch {
		t.Fatalf("epoch %d after heal, want a drift-triggered corrective fit above boot epoch %d",
			out.healedEpoch, out.bootEpoch)
	}
	if out.finalSurvivors != 12 {
		t.Fatalf("only %d/12 hosts healthy after heal", out.finalSurvivors)
	}
	if out.finalMedian > gateMedian || out.finalP90 > gateP90 {
		t.Fatalf("post-heal accuracy median=%v p90=%v exceeds gates (median %v, p90 %v)",
			out.finalMedian, out.finalP90, gateMedian, gateP90)
	}
}

// TestScenarioDeterministic runs the full partition/heal scenario twice
// with the same seed and requires bit-identical assertion values — the
// property that makes scenario failures reproducible instead of
// flaky.
func TestScenarioDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("double scenario run in -short mode")
	}
	a := runPartitionScenario(t, 42)
	b := runPartitionScenario(t, 42)
	if a != b {
		t.Fatalf("same seed, different outcomes:\n  run 1: %+v\n  run 2: %+v", a, b)
	}
}

// TestScenarioFlappingPartition: a landmark minority is cut off and
// healed three times in a row, with a report round on each side of
// every transition. The incremental solver must absorb the flapping —
// afterwards every host is still served and accuracy sits inside the
// documented gates.
func TestScenarioFlappingPartition(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	c, err := New(Config{
		NumLandmarks:        9,
		NumHosts:            12,
		Dim:                 6,
		Solver:              solve.SGD,
		DriftEpochThreshold: 0.05,
		Seed:                43,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 3; cycle++ {
		if _, err := c.PartitionLandmarks(3); err != nil {
			t.Fatal(err)
		}
		ok, err := c.ReportRound(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ok != 6 {
			t.Fatalf("cycle %d: %d landmarks reported during the cut, want the majority 6", cycle, ok)
		}
		c.Net.Heal()
		if ok, err = c.ReportRound(ctx); err != nil {
			t.Fatal(err)
		}
		if ok != 9 {
			t.Fatalf("cycle %d: %d/9 landmarks reported after heal", cycle, ok)
		}
	}
	if _, err := c.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if got := c.Survivors(ctx); got != 12 {
		t.Fatalf("only %d/12 hosts served after 3 partition/heal cycles", got)
	}
	acc, err := c.MeasureAccuracy(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Answered != acc.Queried || acc.Median > gateMedian || acc.P90 > gateP90 {
		t.Fatalf("post-flap accuracy %v (answered %d/%d) exceeds gates (median %v, p90 %v)",
			acc.Summary, acc.Answered, acc.Queried, gateMedian, gateP90)
	}
	t.Logf("after 3 flaps: accuracy %v", acc.Summary)
}

// TestScenarioLossyBootstrap: with per-packet loss on every link the
// system must still come up — lost measurement samples are discarded,
// lost handshakes retransmit — and serve estimates within gates. Under
// heavy loss some hosts may legitimately fail to join; the accuracy
// gate is over the hosts that did, plus a floor on joins.
func TestScenarioLossyBootstrap(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		loss                    float64
		minReporting, minJoined int
	}{
		{"loss5", 0.05, 7, 9},
		{"loss20", 0.20, 6, 8}, // >= 80% joined
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			c, err := New(Config{
				NumLandmarks: 8,
				NumHosts:     10,
				Dim:          5,
				Seed:         7,
				LossRate:     tc.loss,
				RTOMillis:    50,
				Samples:      3, // min-of-3 so a lost sample doesn't kill a measurement
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ok, err := c.ReportRound(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if ok < tc.minReporting {
				t.Fatalf("only %d/8 landmarks reported under %.0f%% loss", ok, 100*tc.loss)
			}
			if _, err := c.Refresh(ctx); err != nil {
				t.Fatal(err)
			}
			joined, err := c.BootstrapAll(ctx)
			if joined < tc.minJoined {
				t.Fatalf("only %d/10 hosts joined under %.0f%% loss (last err %v)", joined, 100*tc.loss, err)
			}
			acc, err := c.MeasureAccuracy(ctx, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if acc.Answered == 0 || acc.Median > gateMedian || acc.P90 > gateP90 {
				t.Fatalf("lossy-boot accuracy %v (answered %d) exceeds gates", acc.Summary, acc.Answered)
			}
			t.Logf("%.0f%% loss: %d/8 landmarks, %d/10 hosts, accuracy %v", 100*tc.loss, ok, joined, acc.Summary)
		})
	}
}

// TestScenarioLandmarkCrashChurn: kill a landmark outright — hosts
// keep bootstrapping against the survivors (§5.2 failure tolerance),
// and after revival the next report round folds it back in.
func TestScenarioLandmarkCrashChurn(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c, err := New(Config{NumLandmarks: 8, NumHosts: 8, Dim: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}

	lm := c.LandmarkNames()[7]
	if err := c.Net.Kill(lm); err != nil {
		t.Fatal(err)
	}
	// A fresh host joins while the landmark is down: measurement of the
	// dead landmark fails and the client solves from the remaining 7.
	if err := c.Bootstrap(ctx, 3); err != nil {
		t.Fatalf("bootstrap with a dead landmark: %v", err)
	}
	if got := c.Survivors(ctx); got != 8 {
		t.Fatalf("survivors with a dead landmark = %d, want 8", got)
	}

	if err := c.Net.Revive(lm); err != nil {
		t.Fatal(err)
	}
	// The machine is back; its agent's echo listener needs re-arming.
	h, err := c.Net.Host(lm)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := h.Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go c.agents[7].ServeEcho(ctx, ln) //nolint:errcheck
	ok, err := c.ReportRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ok != 8 {
		t.Fatalf("%d/8 landmarks reported after revive", ok)
	}
}
