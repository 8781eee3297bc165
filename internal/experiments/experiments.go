// Package experiments reproduces every table and figure of the paper's
// evaluation (§4.3 and §6) and the ablations behind its design claims.
// Every experiment returns the same shape, a Table, and All lists them in
// paper order: cmd/idesbench prints each table, the root bench_test.go
// runs each entry as a sub-benchmark, and the tests here assert on the
// cells idesbench prints. Experiments take a Scale: Quick shrinks the
// largest dataset and Fig 3's dimension sweeps so the whole suite runs in
// about a minute; Full uses the paper's sizes. Every NMF fit, at either
// scale, runs until it has converged (factor.NMF's stopping rule).
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/ides-go/ides/internal/dataset"
	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/stats"
)

// Scale selects experiment sizing.
type Scale int

const (
	// Quick shrinks P2PSim to a few hundred hosts and Fig 3's dimension
	// sweeps to six points; every qualitative conclusion is preserved.
	Quick Scale = iota
	// Full uses the paper's dataset sizes (P2PSim at 1143 hosts, the full
	// dimension sweeps). Minutes of CPU.
	Full
)

// String names the scale.
func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "quick"
}

// Unit says what a column measures.
type Unit int

const (
	// Ratio is dimensionless, mostly a relative error (Eq. 10).
	Ratio Unit = iota
	// Seconds is a wall time: it differs between runs and machines.
	Seconds
	// Count is a tally, such as the number of pairs scored.
	Count
)

// Column names one value of every row of a table.
type Column struct {
	Name string
	Unit Unit
}

// Row is one labeled line of a table: Values[i] is in Columns[i], and NaN
// means there is nothing to report.
type Row struct {
	Label  string
	Values []float64
}

// Table is what every experiment returns: one row per dataset, system or
// swept value. Label names what the row labels are.
type Table struct {
	Title   string
	Label   string
	Columns []Column
	Rows    []Row
}

// Experiment is one entry of the paper's evaluation.
type Experiment struct {
	ID  string // idesbench's -exp value
	Run func(Scale, int64) ([]Table, error)
}

// All is the paper's evaluation, in paper order.
var All = []Experiment{
	{"fig2", one(Fig2)},
	{"fig3a", on(Fig3, "NLANR")},
	{"fig3b", on(Fig3, "P2PSim")},
	{"table1", one(Table1)},
	{"fig6a", on(Fig6, "GNP")},
	{"fig6b", on(Fig6, "NLANR")},
	{"fig6c", on(Fig6, "P2PSim")},
	{"fig7a", on(Fig7, "NLANR")},
	{"fig7b", on(Fig7, "P2PSim")},
	{"ablations", Ablations},
}

// one makes a single-table experiment an entry of All.
func one(run func(Scale, int64) (Table, error)) func(Scale, int64) ([]Table, error) {
	return func(scale Scale, seed int64) ([]Table, error) {
		tab, err := run(scale, seed)
		if err != nil {
			return nil, err
		}
		return []Table{tab}, nil
	}
}

// on binds a figure drawn once per dataset to one of its panels.
func on(fig func(string, Scale, int64) (Table, error), dsName string) func(Scale, int64) ([]Table, error) {
	return one(func(scale Scale, seed int64) (Table, error) { return fig(dsName, scale, seed) })
}

// panel names the panel of Figure fig that shows dsName: the figure's
// panels show datasets in the order given.
func panel(fig, dsName string, datasets ...string) (string, error) {
	for i, name := range datasets {
		if name == dsName {
			return fmt.Sprintf("Figure %s(%c)", fig, 'a'+i), nil
		}
	}
	return "", fmt.Errorf("fig%s: unknown dataset %q (want %s)", fig, dsName, strings.Join(datasets, ", "))
}

// cdfQuantiles are the points of an error distribution a CDF table reports.
var cdfQuantiles = []struct {
	name string
	p    float64
}{{"p10", 0.10}, {"p25", 0.25}, {"median", 0.5}, {"p75", 0.75}, {"p90", 0.9}, {"p99", 0.99}}

// cdfTable starts a table whose rows are error samples (cdfRow).
func cdfTable(title, label string) Table {
	cols := []Column{{"pairs", Count}}
	for _, q := range cdfQuantiles {
		cols = append(cols, Column{q.name, Ratio})
	}
	return Table{Title: title, Label: label, Columns: cols}
}

// cdfRow summarizes one error sample: its size, then its quantiles.
func cdfRow(label string, errs []float64) Row {
	c := stats.NewCDF(errs)
	vals := []float64{float64(c.Len())}
	for _, q := range cdfQuantiles {
		vals = append(vals, c.Quantile(q.p))
	}
	return Row{label, vals}
}

// timed returns how long f took, in seconds.
func timed(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return time.Since(start).Seconds(), err
}

// quickP2PSimHosts is the reduced P2PSim size used by Quick runs.
const quickP2PSimHosts = 300

// genByName returns a dataset generator by its paper name.
func genByName(name string, scale Scale, seed int64) (*dataset.Dataset, error) {
	switch name {
	case "NLANR":
		return dataset.GenNLANR(seed)
	case "GNP":
		return dataset.GenGNP(seed)
	case "AGNP":
		return dataset.GenAGNP(seed)
	case "P2PSim":
		if scale == Full {
			return dataset.GenP2PSim(seed)
		}
		return dataset.GenP2PSimSmall(seed, quickP2PSimHosts)
	case "PL-RTT":
		return dataset.GenPLRTT(seed)
	default:
		return nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
}

// splitHosts partitions 0..n-1 into numLM random landmarks and the
// remaining ordinary hosts, deterministically for a seed. The paper
// selects landmarks randomly, citing [21] that random placement is
// effective for m >= 20.
func splitHosts(n, numLM int, seed int64) (lm, hosts []int) {
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	lm = append([]int(nil), perm[:numLM]...)
	hosts = append([]int(nil), perm[numLM:]...)
	return lm, hosts
}

// submatrix returns D[rows, cols].
func submatrix(d *mat.Dense, rows, cols []int) *mat.Dense {
	return d.SelectRows(rows).SelectCols(cols)
}

// pairErrors scores est(i, j) for every ordered pair of distinct hosts
// against their distance in d.
func pairErrors(d *mat.Dense, hosts []int, est func(i, j int) float64) []float64 {
	return stats.RelativeErrors(len(hosts), len(hosts),
		func(i, j int) float64 { return d.At(hosts[i], hosts[j]) }, est)
}
