// Command idesbench regenerates the paper's tables and figures as text
// series on stdout.
//
// Usage:
//
//	idesbench -exp all            # every paper experiment, quick scale
//	idesbench -exp fig6b -full    # one experiment at paper scale
//	idesbench -exp table1 -seed 7
//
// Experiments: fig2, fig3a, fig3b, table1, fig6a, fig6b, fig6c, fig7a,
// fig7b, ablations, all. Two serving workloads run only when named:
// solver (batch vs SGD under measurement churn, writes
// BENCH_solver.json) and cluster (leader + followers with a leader kill,
// writes BENCH_cluster.json, non-zero exit when a read errors, nothing
// failed over or a follower drifts off the pre-kill epoch). Every other
// serving measurement lives in the bench/
// module: bash bench/run.sh --workload <name> --trace 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"text/tabwriter"
	"time"

	"github.com/ides-go/ides/internal/experiments"
	"github.com/ides-go/ides/internal/server"
	"github.com/ides-go/ides/internal/stats"
	"github.com/ides-go/ides/internal/telemetry"
	"github.com/ides-go/ides/internal/transport"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig2, fig3a, fig3b, table1, fig6a, fig6b, fig6c, fig7a, fig7b, ablations, all; solver and cluster run only when named)")
	full := flag.Bool("full", false, "run at the paper's dataset sizes (minutes of CPU)")
	seed := flag.Int64("seed", 42, "random seed for datasets and algorithms")
	flag.Parse()

	scale := experiments.Quick
	if *full {
		scale = experiments.Full
	}

	runners := map[string]func(experiments.Scale, int64) error{
		"fig2":      runFig2,
		"fig3a":     func(s experiments.Scale, sd int64) error { return runFig3("NLANR", "3(a)", s, sd) },
		"fig3b":     func(s experiments.Scale, sd int64) error { return runFig3("P2PSim", "3(b)", s, sd) },
		"table1":    runTable1,
		"fig6a":     func(s experiments.Scale, sd int64) error { return runFig6("GNP", "6(a)", s, sd) },
		"fig6b":     func(s experiments.Scale, sd int64) error { return runFig6("NLANR", "6(b)", s, sd) },
		"fig6c":     func(s experiments.Scale, sd int64) error { return runFig6("P2PSim", "6(c)", s, sd) },
		"fig7a":     func(s experiments.Scale, sd int64) error { return runFig7("NLANR", "7(a)", s, sd) },
		"fig7b":     func(s experiments.Scale, sd int64) error { return runFig7("P2PSim", "7(b)", s, sd) },
		"ablations": runAblations,
		"solver":    runSolver,
		"cluster":   runCluster,
	}
	// all is the paper: the figures, the table and the ablations.
	all := []string{"fig2", "fig3a", "fig3b", "table1", "fig6a", "fig6b", "fig6c", "fig7a", "fig7b", "ablations"}

	var ids []string
	if *exp == "all" {
		ids = all
	} else if _, ok := runners[*exp]; ok {
		ids = []string{*exp}
	} else {
		fmt.Fprintf(os.Stderr, "idesbench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}

	fmt.Printf("# idesbench scale=%s seed=%d\n", scale, *seed)
	for _, id := range ids {
		if err := runners[id](scale, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "idesbench: %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}

// serveLoopback serves srv on an ephemeral loopback TCP port. stop
// cancels the serve loop, closes the listener and waits for Serve to
// return; it is safe to call more than once.
func serveLoopback(srv *server.Server) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ctx, ln) }() //nolint:errcheck
	return ln.Addr().String(), func() { cancel(); ln.Close(); <-done }, nil
}

// newLoopbackPool builds the client pool a workload drives its server
// with (the ides-client defaults) and registers its counters on reg.
func newLoopbackPool(reg *telemetry.Registry) (*transport.Pool, error) {
	pool, err := transport.NewPool(transport.PoolConfig{Dialer: &net.Dialer{Timeout: 5 * time.Second}})
	if err != nil {
		return nil, err
	}
	pool.RegisterMetrics(reg)
	return pool, nil
}

// writeBenchJSON writes v, indented, to the named artifact in the
// working directory.
func writeBenchJSON(name string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(name, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("(wrote %s)\n", name)
	return nil
}

// quantiles prints a fixed set of CDF quantiles for a series.
func quantiles(c *stats.CDF) string {
	return fmt.Sprintf("p10=%.3f p25=%.3f median=%.3f p75=%.3f p90=%.3f p99=%.3f",
		c.Quantile(0.10), c.Quantile(0.25), c.Quantile(0.5), c.Quantile(0.75), c.Quantile(0.9), c.Quantile(0.99))
}

func runFig2(scale experiments.Scale, seed int64) error {
	fmt.Println("\n== Figure 2: CDF of SVD reconstruction relative error, d=10 ==")
	series, err := experiments.Fig2(scale, seed)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "dataset\tpairs\tquantiles")
	for _, s := range series {
		fmt.Fprintf(w, "%s\t%d\t%s\n", s.Label, len(s.Errors), quantiles(stats.NewCDF(s.Errors)))
	}
	return w.Flush()
}

func runFig3(ds, figure string, scale experiments.Scale, seed int64) error {
	fmt.Printf("\n== Figure %s: median reconstruction error vs dimension, %s ==\n", figure, ds)
	pts, err := experiments.Fig3(ds, scale, seed)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "dim\tLipschitz+PCA\tSVD\tNMF")
	for _, p := range pts {
		fmt.Fprintf(w, "%d\t%.4f\t%.4f\t%.4f\n", p.Dim, p.Lipschitz, p.SVD, p.NMF)
	}
	return w.Flush()
}

func runTable1(scale experiments.Scale, seed int64) error {
	fmt.Println("\n== Table 1: model construction time (landmark fit + all host placements) ==")
	rows, err := experiments.Table1(scale, seed)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "dataset\tIDES/SVD\tIDES/NMF\tICS\tGNP")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%v\t%v\t%v\t%v\n", r.Dataset, r.IDESSVD, r.IDESNMF, r.ICS, r.GNP)
	}
	return w.Flush()
}

func runFig6(ds, figure string, scale experiments.Scale, seed int64) error {
	fmt.Printf("\n== Figure %s: CDF of prediction error, %s, d=8 ==\n", figure, ds)
	series, err := experiments.Fig6(ds, scale, seed)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "system\tpairs\tquantiles")
	for _, s := range series {
		fmt.Fprintf(w, "%s\t%d\t%s\n", s.Label, len(s.Errors), quantiles(stats.NewCDF(s.Errors)))
	}
	return w.Flush()
}

func runFig7(ds, figure string, scale experiments.Scale, seed int64) error {
	fmt.Printf("\n== Figure %s: median prediction error vs unobserved landmark fraction, %s, IDES/SVD ==\n", figure, ds)
	series, err := experiments.Fig7(ds, scale, seed)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "fraction\t20 landmarks\t50 landmarks")
	var m20, m50 experiments.Fig7Series
	for _, s := range series {
		if s.NumLandmarks == 20 {
			m20 = s
		} else {
			m50 = s
		}
	}
	for i := range m20.Fractions {
		fmt.Fprintf(w, "%.1f\t%.4f\t%.4f\n", m20.Fractions[i], m20.Medians[i], m50.Medians[i])
	}
	return w.Flush()
}

func runAblations(scale experiments.Scale, seed int64) error {
	fmt.Println("\n== Ablations ==")

	svd, err := experiments.AblationSVDAlgorithms([]int{60, 120, 240}, 10, seed)
	if err != nil {
		return err
	}
	fmt.Println("-- exact Jacobi vs randomized truncated SVD --")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "n\texact\tapprox\tmax spectral deviation")
	for _, r := range svd {
		fmt.Fprintf(w, "%d\t%v\t%v\t%.2e\n", r.N, r.ExactTime, r.ApproxTime, r.ApproxError)
	}
	w.Flush()

	nmf, err := experiments.AblationNMFIterations(seed, []int{25, 50, 100, 200, 400})
	if err != nil {
		return err
	}
	fmt.Println("-- NMF iteration budget (NLANR, d=10) --")
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "iters\tmedian error")
	for _, r := range nmf {
		fmt.Fprintf(w, "%d\t%.4f\n", r.Iters, r.Median)
	}
	w.Flush()

	nnls, err := experiments.AblationHostSolveNNLS(seed)
	if err != nil {
		return err
	}
	fmt.Println("-- host solve: unconstrained vs NNLS (NMF model, NLANR) --")
	fmt.Printf("unconstrained median=%.4f (%d negative predictions)  nnls median=%.4f (0 negative)\n",
		nnls.MedianUnconstrained, nnls.NegativePredictions, nnls.MedianNNLS)

	ks, err := experiments.AblationKNodes(seed, []int{8, 12, 20, 30})
	if err != nil {
		return err
	}
	fmt.Println("-- k nodes measured per host (30 landmarks, d=8, NLANR) --")
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "k\tmedian error")
	for _, r := range ks {
		fmt.Fprintf(w, "%d\t%.4f\n", r.K, r.Median)
	}
	w.Flush()

	sel, err := experiments.AblationLandmarkSelection(seed)
	if err != nil {
		return err
	}
	fmt.Println("-- landmark selection policy (20 landmarks, NLANR) --")
	for _, r := range sel {
		fmt.Printf("%-16s median=%.4f\n", r.Policy, r.Median)
	}

	chain, err := experiments.AblationHostChaining(seed, 3)
	if err != nil {
		return err
	}
	fmt.Println("-- host chaining depth (§5.2 relaxation, NLANR) --")
	for _, r := range chain {
		fmt.Printf("depth %d: median=%.4f\n", r.Depth, r.Median)
	}

	missing, err := experiments.AblationMissingData(seed, []float64{0, 0.1, 0.2, 0.3, 0.5})
	if err != nil {
		return err
	}
	fmt.Println("-- masked NMF under missing measurements (§4.2, NLANR, d=10) --")
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "missing\tmedian err (observed)\tmedian err (hidden)")
	for _, r := range missing {
		fmt.Fprintf(w, "%.0f%%\t%.4f\t%.4f\n", 100*r.MissingFrac, r.MedianObserved, r.MedianHidden)
	}
	w.Flush()

	viv, err := experiments.ExtVivaldi(seed)
	if err != nil {
		return err
	}
	fmt.Println("-- extension: Vivaldi baselines vs IDES (NLANR reconstruction, d=8) --")
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "system\tmedian\tp90")
	for _, r := range viv {
		fmt.Fprintf(w, "%s\t%.4f\t%.4f\n", r.System, r.Median, r.P90)
	}
	return w.Flush()
}
