// Command idesbench regenerates the paper's tables and figures as
// GitHub Markdown tables on stdout; EXPERIMENTS.md is the output of
// `idesbench -exp all -seed 42`.
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

// printTable writes one experiment table as a GitHub Markdown table
// under a "## title" heading: ratios to four significant digits, wall
// times as durations, and NaN (nothing to report) as "-".
func printTable(w io.Writer, tab experiments.Table) error {
	var b strings.Builder
	fmt.Fprintf(&b, "\n## %s\n\n| %s |", tab.Title, tab.Label)
	for _, c := range tab.Columns {
		fmt.Fprintf(&b, " %s |", c.Name)
	}
	b.WriteString("\n|---|" + strings.Repeat("---|", len(tab.Columns)))
	for _, r := range tab.Rows {
		fmt.Fprintf(&b, "\n| %s |", r.Label)
		for i, v := range r.Values {
			cell := fmt.Sprintf("%.4g", v)
			switch {
			case math.IsNaN(v):
				cell = "-"
			case tab.Columns[i].Unit == experiments.Seconds:
				cell = time.Duration(math.Round(v * 1e9)).String()
			case tab.Columns[i].Unit == experiments.Count:
				cell = fmt.Sprintf("%.0f", v)
			}
			fmt.Fprintf(&b, " %s |", cell)
		}
	}
	b.WriteString("\n")
	_, err := io.WriteString(w, b.String())
	return err
}
