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
			// through the incremental path so the gate covers served
			// revisions, not just the seeding fit.
			if kind == solve.SGD {
				if _, err := c.ReportRound(ctx); err != nil {
					t.Fatal(err)
				}
				if _, err := c.Refresh(ctx); err != nil {
					t.Fatal(err)
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
