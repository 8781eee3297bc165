package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/ides-go/ides/internal/stats"
)

// Verdicts of -compare, per (workload, end-to-end metric).
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// spreadOf is the run-to-run spread of one side as a share of its
// median: the interquartile distance with four or more runs, the full
// range with two or three, zero with one (unknown).
func spreadOf(v []float64) float64 {
	med := stats.Median(v)
	if len(v) < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = stats.Percentile(s, 25), stats.Percentile(s, 75)
	}
	return (hi - lo) / med
}

// classify judges B (the change) against A (the parent) on one metric.
// worse is how much worse B's median is than A's, as a share of A's
// median (negative: better). The metric regressed when worse exceeds the
// bound. When either side's own spread is wider than the bound the
// medians cannot carry that verdict: it is unresolved, unless every run
// of one side beats every run of the other, which settles it.
func classify(a, b []float64, def metricDef) (verdict string, worse, spread float64) {
	ma, mb := stats.Median(a), stats.Median(b)
	sign := 1.0
	if def.Better == "higher" {
		sign = -1
	}
	if ma != 0 {
		worse = sign * (mb - ma) / ma
	}
	spread = max(spreadOf(a), spreadOf(b))
	if spread > def.Bound {
		allBetter, allWorse := true, true
		for _, x := range a {
			for _, y := range b {
				if sign*(y-x) >= 0 {
					allBetter = false
				}
				if sign*(y-x) <= 0 {
					allWorse = false
				}
			}
		}
		switch {
		case allBetter:
			return verdictOK, worse, spread
		case allWorse && worse > def.Bound:
			return verdictRegressed, worse, spread
		}
		return verdictUnresolved, worse, spread
	}
	if worse > def.Bound {
		return verdictRegressed, worse, spread
	}
	return verdictOK, worse, spread
}

// loadRuns reads a comma-separated list of result files into
// workload -> metric -> one value per run.
func loadRuns(list string) (map[string]map[string][]float64, error) {
	runs := map[string]map[string][]float64{}
	for _, path := range strings.Split(list, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for name, r := range f.Workloads {
			if r.Trace {
				return nil, fmt.Errorf("%s: %s is a traced run; end-to-end numbers come from untraced runs", path, name)
			}
			if runs[name] == nil {
				runs[name] = map[string][]float64{}
			}
			for metric, v := range r.Metrics {
				runs[name][metric] = append(runs[name][metric], v)
			}
		}
	}
	return runs, nil
}

// compareFiles prints one row per (workload, end-to-end metric) and
// reports whether any regressed. Each side is one result file or a
// comma-separated list of them (several runs give the spread).
func compareFiles(w io.Writer, aList, bList string) (regressed bool, err error) {
	a, err := loadRuns(aList)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(bList)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-15s %-15s %14s %14s %22s %8s %7s  %s\n",
		"workload", "metric", "A (median)", "B (median)", "B/A (base A)", "spread", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if ra == nil || rb == nil {
			continue
		}
		for _, def := range endToEnd {
			va, vb := ra[def.Name], rb[def.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, _, spread := classify(va, vb, def)
			ma, mb := stats.Median(va), stats.Median(vb)
			ratio := "n/a"
			if ma != 0 {
				ratio = fmt.Sprintf("%.4f of %.6g", mb/ma, ma)
			}
			fmt.Fprintf(w, "%-15s %-15s %14.6g %14.6g %22s %7.1f%% %6.0f%%  %s\n",
				wl.Name, def.Name, ma, mb, ratio, spread*100, def.Bound*100, verdict)
			if verdict == verdictRegressed {
				regressed = true
			}
		}
	}
	return regressed, nil
}
