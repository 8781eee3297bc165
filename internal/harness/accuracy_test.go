package harness

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/solve"
	"github.com/ides-go/ides/internal/testutil"
)

// TestPaperAccuracyAtScale is the end-to-end Fig-2-style regression
// gate: a full cluster on a 1000-host generated topology — 20
// landmarks, one server, 979 ordinary hosts all joining through the
// real wire protocol — must serve estimates whose modified relative
// error stays inside the documented bounds (median ≤ 0.30, p90 ≤ 1.0)
// for both the batch and the SGD solver. Under -race the topology is
// scaled to 300 hosts to keep the suite fast; the bounds are the same.
func TestPaperAccuracyAtScale(t *testing.T) {
	totalHosts := 1000
	if testutil.RaceEnabled {
		totalHosts = 300
	}
	const numLM = 20
	numHosts := totalHosts - numLM - 1

	for _, kind := range []solve.Kind{solve.Batch, solve.SGD} {
		t.Run(fmt.Sprintf("solver=%v", kind), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			defer cancel()
			c, err := New(Config{
				NumLandmarks: numLM,
				NumHosts:     numHosts,
				Dim:          10, // the paper's accuracy/cost tradeoff
				Solver:       kind,
				Seed:         42,
				K:            numLM, // measure all landmarks
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Start(ctx); err != nil {
				t.Fatal(err)
			}

			// With the SGD solver, fold one more measurement round in
			// through the incremental path. This does not make the gate
			// cover revisions: every host registered before them, and a
			// host-to-host estimate reads only host vectors, so the
			// digits below are the seeding fit's, the batch subtest's
			// exactly. What the round does exercise is that the revisions
			// keep the epoch, and with it every registered host.
			if kind == solve.SGD {
				epoch := c.ServedEpoch()
				if _, err := c.ReportRound(ctx); err != nil {
					t.Fatal(err)
				}
				if _, err := c.Refresh(ctx); err != nil {
					t.Fatal(err)
				}
				if st := c.Srv.LifecycleStats(); st.Fits != 1 || st.Revisions == 0 || st.Epoch != epoch {
					t.Fatalf("after the SGD round: %+v, want 1 fit, some revisions, epoch %d", st, epoch)
				}
				if alive := c.Survivors(ctx); alive != numHosts {
					t.Fatalf("%d of %d hosts answer after the SGD revisions", alive, numHosts)
				}
			}

			// Deterministic sample: 60 sources x 60 targets = 3600 pairs.
			acc, err := c.MeasureAccuracy(ctx, 60, 60)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%v over %d hosts: %s (answered %d/%d)", kind, totalHosts, acc.Summary, acc.Answered, acc.Queried)
			if acc.Answered != acc.Queried {
				t.Fatalf("answered %d of %d estimate queries", acc.Answered, acc.Queried)
			}
			if acc.Median > gateMedian {
				t.Fatalf("median relative error %.4f exceeds the documented bound %.2f", acc.Median, gateMedian)
			}
			if acc.P90 > gateP90 {
				t.Fatalf("p90 relative error %.4f exceeds the documented bound %.2f", acc.P90, gateP90)
			}
		})
	}
}

// TestExactlyDimLandmarksClient gates the client's placement at k = d: a
// cluster whose clients measure exactly Dim of the 20 landmarks must
// serve host-to-host estimates whose median relative error stays within
// kEqualsDFactor of a cluster whose clients measure all of them. With d
// references the host's least-squares system is square and often nearly
// singular; the unfiltered solve registered vectors from the top of Fig 7's
// k = d spike (a median 14.5× the full cluster's on this topology), the
// filtered one lands at 1.6×.
func TestExactlyDimLandmarksClient(t *testing.T) {
	const numLM, dim, kEqualsDFactor = 20, 10, 2.0
	median := func(k int) float64 {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		c, err := New(Config{NumLandmarks: numLM, NumHosts: 300, Dim: dim, Seed: 42, K: k})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Start(ctx); err != nil {
			t.Fatal(err)
		}
		acc, err := c.MeasureAccuracy(ctx, 60, 60)
		if err != nil {
			t.Fatal(err)
		}
		if acc.Answered != acc.Queried {
			t.Fatalf("k=%d: answered %d of %d estimate queries", k, acc.Answered, acc.Queried)
		}
		t.Logf("k=%d: %s", k, acc.Summary)
		return acc.Median
	}
	exact, all := median(dim), median(numLM)
	if exact > kEqualsDFactor*all {
		t.Fatalf("k = d median %.4f is %.2f× the all-landmark median %.4f, want ≤ %.1f×",
			exact, exact/all, all, kEqualsDFactor)
	}
}
