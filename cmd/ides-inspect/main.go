// Command ides-inspect characterizes a dataset file: shape, RTT
// distribution, asymmetry, triangle-inequality violations, spectral decay,
// and reconstruction error at a few model dimensions — the properties that
// decide whether matrix factorization will model it well.
//
// It also replays recorded server history: -replay points at a history
// directory written by ides-server -history-dir (or the harness), feeds
// the window's recorded report frames to a leader booted in process from
// the recorded configuration, and reports the reproduced accuracy. The
// -what-if-* flags rerun the window under an alternate solver,
// algorithm, dimension or drift threshold and print both outcomes.
//
// Usage:
//
//	ides-inspect data/nlanr.ids
//	ides-inspect -replay /var/lib/ides/history
//	ides-inspect -replay /var/lib/ides/history -what-if-solver sgd
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"github.com/ides-go/ides/internal/dataset"
	"github.com/ides-go/ides/internal/factor"
	"github.com/ides-go/ides/internal/harness"
	"github.com/ides-go/ides/internal/stats"
	"github.com/ides-go/ides/internal/telemetry"
)

func main() {
	seed := flag.Int64("seed", 1, "seed for sampled statistics and factorization")
	replayDir := flag.String("replay", "", "replay a recorded history directory instead of inspecting a dataset")
	fromNanos := flag.Int64("replay-from", 0, "replay window start (unix nanos, 0 = log start)")
	toNanos := flag.Int64("replay-to", 0, "replay window end, exclusive (unix nanos, 0 = log end)")
	wiSolver := flag.String("what-if-solver", "", "what-if: replay again with this solver (batch or sgd)")
	wiAlg := flag.String("what-if-alg", "", "what-if: replay again with this algorithm (svd or nmf)")
	wiDim := flag.Int("what-if-dim", 0, "what-if: replay again with this model dimension")
	wiDrift := flag.Float64("what-if-drift", -1, "what-if: replay again with this drift threshold (negative keeps recorded)")
	wiSeed := flag.Int64("what-if-seed", 0, "what-if: replay again with this fitting seed")
	flag.Parse()
	if *replayDir != "" {
		over := harness.ReplayOverrides{Solver: *wiSolver, Algorithm: *wiAlg, Dim: *wiDim}
		if *wiDrift >= 0 {
			over.Drift = wiDrift
		}
		if *wiSeed != 0 {
			over.Seed = wiSeed
		}
		if err := runReplay(*replayDir, harness.ReplayWindow{FromNanos: *fromNanos, ToNanos: *toNanos}, over); err != nil {
			fmt.Fprintf(os.Stderr, "ides-inspect: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ides-inspect [-seed N] <dataset.ids>\n       ides-inspect -replay <history-dir> [-what-if-solver sgd] ...")
		os.Exit(2)
	}
	path := flag.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ides-inspect: %v\n", err)
		os.Exit(1)
	}
	ds, err := dataset.Load(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ides-inspect: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("dataset   %s\n", ds.Name)
	fmt.Printf("shape     %dx%d (symmetric=%v, masked=%v)\n", ds.Rows(), ds.Cols(), ds.Symmetric, ds.Mask != nil)

	// RTT distribution over observed off-diagonal entries.
	var vals []float64
	var missing int
	for i := 0; i < ds.Rows(); i++ {
		for j := 0; j < ds.Cols(); j++ {
			if ds.Square() && i == j {
				continue
			}
			if !ds.Observed(i, j) {
				missing++
				continue
			}
			vals = append(vals, ds.D.At(i, j))
		}
	}
	c := stats.NewCDF(vals)
	fmt.Printf("rtt (ms)  min=%.2f median=%.2f p90=%.2f max=%.2f  (missing entries: %d)\n",
		c.Quantile(0), c.Quantile(0.5), c.Quantile(0.9), c.Quantile(1), missing)

	if ds.Square() {
		fmt.Printf("asymmetry (>5%% direction gap): %.1f%% of pairs\n",
			100*dataset.AsymmetryFraction(ds.D, 0.05))
		fmt.Printf("triangle violations (2%% margin): %.1f%% of pairs\n",
			100*dataset.TriangleViolationFraction(ds.D, 0.02, *seed))
	}

	// Low-rank profile: reconstruction error at several dimensions.
	fmt.Println("\nlow-rank reconstruction (SVD):")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "d\tmedian err\tp90 err")
	for _, d := range []int{2, 5, 10, 20} {
		if d > ds.Rows() || d > ds.Cols() {
			break
		}
		fct, err := factor.SVDFactor(ds.D, d, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ides-inspect: d=%d: %v\n", d, err)
			os.Exit(1)
		}
		errs := fct.ReconstructionErrors(ds.D)
		ec := stats.NewCDF(errs)
		fmt.Fprintf(w, "%d\t%.4f\t%.4f\n", d, ec.Quantile(0.5), ec.Quantile(0.9))
	}
	w.Flush()
}

// runReplay replays the recorded window as it happened and, when
// overrides are given, once more under them, printing both accuracy
// summaries. Output is deterministic for a given log, window and
// override set.
func runReplay(dir string, window harness.ReplayWindow, over harness.ReplayOverrides) error {
	recs, err := telemetry.ReadAll(dir)
	if err != nil {
		return err
	}
	ctx := context.Background()

	base, err := harness.Replay(ctx, recs, window, harness.ReplayOverrides{})
	if err != nil {
		return err
	}
	fmt.Printf("history   %s (%d records)\n", dir, len(recs))
	fmt.Printf("recorded  %d landmarks, dim=%d, alg=%s, solver=%s, seed=%d, drift=%g\n",
		len(base.Config.Landmarks), base.Config.Dim, base.Config.Algorithm,
		base.Config.Solver, base.Config.Seed, base.Config.DriftThreshold)
	fmt.Printf("window    %d report frames, %d measurements\n", base.Frames, base.Reports)
	if len(base.Recorded) > 0 {
		last := base.Recorded[len(base.Recorded)-1]
		fmt.Printf("\nrecorded epoch summary (epoch %d rev %d, %d pairs):\n", last.Epoch, last.Rev, last.Samples)
		fmt.Printf("  mean=%.6f median=%.6f p90=%.6f max=%.6f\n",
			last.MeanAbsRel, last.MedianAbsRel, last.P90AbsRel, last.MaxAbsRel)
	}
	printReplay("replayed (as recorded)", base)

	if !over.Any() {
		return nil
	}
	alt, err := harness.Replay(ctx, recs, window, over)
	if err != nil {
		return fmt.Errorf("what-if: %w", err)
	}
	printReplay("what-if", alt)
	fmt.Printf("\nwhat-if delta: median %+.6f, p90 %+.6f\n",
		alt.Final.Median-base.Final.Median, alt.Final.P90-base.Final.P90)
	return nil
}

func printReplay(label string, r *harness.ReplayResult) {
	fmt.Printf("\n%s: solver=%s alg=%s dim=%d drift=%g seed=%d\n",
		label, r.Solver, r.Algorithm, r.Dim, r.Drift, r.Seed)
	fmt.Printf("  lifecycle: epoch %d, %d fits, %d revisions\n", r.Epoch, r.Fits, r.Revisions)
	fmt.Printf("  accuracy over %d measured pairs (Eq. 10 rel err):\n", r.Final.N)
	fmt.Printf("  mean=%.6f median=%.6f p90=%.6f max=%.6f\n",
		r.Final.Mean, r.Final.Median, r.Final.P90, r.Final.Max)
}
