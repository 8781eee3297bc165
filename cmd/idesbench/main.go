// Command idesbench regenerates the paper's tables and figures as text
// tables on stdout.
//
// Usage:
//
//	idesbench -exp all            # every paper experiment, quick scale
//	idesbench -exp fig6b -full    # one experiment at paper scale
//	idesbench -exp table1 -seed 7
//
// Experiments are the IDs of experiments.All (fig2, fig3a, fig3b,
// table1, fig6a, fig6b, fig6c, fig7a, fig7b, ablations) or all. Two
// serving workloads run only when named:
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
	"io"
	"math"
	"net"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/ides-go/ides/internal/experiments"
	"github.com/ides-go/ides/internal/server"
	"github.com/ides-go/ides/internal/telemetry"
	"github.com/ides-go/ides/internal/transport"
)

func main() {
	var ids []string
	for _, e := range experiments.All {
		ids = append(ids, e.ID)
	}
	exp := flag.String("exp", "all", "experiment id ("+strings.Join(ids, ", ")+", all; solver and cluster run only when named)")
	full := flag.Bool("full", false, "run at the paper's dataset sizes (minutes of CPU)")
	seed := flag.Int64("seed", 42, "random seed for datasets and algorithms")
	flag.Parse()

	scale := experiments.Quick
	if *full {
		scale = experiments.Full
	}
	var run []experiments.Experiment
	for _, e := range experiments.All {
		if *exp == "all" || *exp == e.ID {
			run = append(run, e)
		}
	}
	workload := map[string]func(experiments.Scale, int64) error{"solver": runSolver, "cluster": runCluster}[*exp]
	if run == nil && workload == nil {
		fmt.Fprintf(os.Stderr, "idesbench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}

	fail := func(id string, err error) {
		fmt.Fprintf(os.Stderr, "idesbench: %s: %v\n", id, err)
		os.Exit(1)
	}
	fmt.Printf("# idesbench scale=%s seed=%d\n", scale, *seed)
	for _, e := range run {
		tabs, err := e.Run(scale, *seed)
		if err != nil {
			fail(e.ID, err)
		}
		for _, tab := range tabs {
			if err := printTable(os.Stdout, tab); err != nil {
				fail(e.ID, err)
			}
		}
	}
	if workload != nil {
		if err := workload(scale, *seed); err != nil {
			fail(*exp, err)
		}
	}
}

// printTable writes one experiment table, aligned: ratios to four
// significant digits, wall times as durations, and NaN (nothing to
// report) as "-".
func printTable(w io.Writer, tab experiments.Table) error {
	fmt.Fprintf(w, "\n== %s ==\n", tab.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, tab.Label)
	for _, c := range tab.Columns {
		fmt.Fprint(tw, "\t", c.Name)
	}
	for _, r := range tab.Rows {
		fmt.Fprint(tw, "\n", r.Label)
		for i, v := range r.Values {
			switch {
			case math.IsNaN(v):
				fmt.Fprint(tw, "\t-")
			case tab.Columns[i].Unit == experiments.Seconds:
				fmt.Fprint(tw, "\t", time.Duration(math.Round(v*1e9)))
			case tab.Columns[i].Unit == experiments.Count:
				fmt.Fprintf(tw, "\t%.0f", v)
			default:
				fmt.Fprintf(tw, "\t%.4g", v)
			}
		}
	}
	fmt.Fprintln(tw)
	return tw.Flush()
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
