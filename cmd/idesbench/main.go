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
// table1, fig6a, fig6b, fig6c, fig7a, fig7b, ablations) or all. Serving
// measurements live in the bench/ module:
// bash bench/run.sh --workload <name> --trace 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/ides-go/ides/internal/experiments"
)

func main() {
	var ids []string
	for _, e := range experiments.All {
		ids = append(ids, e.ID)
	}
	exp := flag.String("exp", "all", "experiment id ("+strings.Join(ids, ", ")+", all)")
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
	if run == nil {
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
