package experiments

import (
	"slices"
	"strings"
	"testing"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/stats"
)

// These tests run the Quick-scale experiments — the same sweeps
// `idesbench -exp all` prints — and assert the *qualitative* results the
// paper reports: who wins, by roughly what factor, and where curves bend.
// Each builds its own datasets from the seed, so they run in parallel.

// cell returns the value in tab's row labeled row and column named col.
func cell(t *testing.T, tab Table, row, col string) float64 {
	t.Helper()
	c := slices.IndexFunc(tab.Columns, func(c Column) bool { return c.Name == col })
	r := slices.IndexFunc(tab.Rows, func(r Row) bool { return r.Label == row })
	if c < 0 || r < 0 {
		t.Fatalf("%s: no cell (%q, %q)", tab.Title, row, col)
	}
	if len(tab.Rows[r].Values) != len(tab.Columns) {
		t.Fatalf("%s: row %q has %d values for %d columns", tab.Title, row, len(tab.Rows[r].Values), len(tab.Columns))
	}
	return tab.Rows[r].Values[c]
}

func TestAllIsThePaperInOrder(t *testing.T) {
	var ids []string
	for _, e := range All {
		ids = append(ids, e.ID)
	}
	if got, want := strings.Join(ids, " "), "fig2 fig3a fig3b table1 fig6a fig6b fig6c fig7a fig7b ablations"; got != want {
		t.Fatalf("All = %s, want %s", got, want)
	}
}

func TestFig2Shapes(t *testing.T) {
	t.Parallel()
	tab, err := Fig2(Quick, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("expected 5 datasets, got %d", len(tab.Rows))
	}
	med := func(ds string) float64 { return cell(t, tab, ds, "median") }
	p90 := func(ds string) float64 { return cell(t, tab, ds, "p90") }
	// GNP easiest; P2PSim hardest; NLANR in between (paper Fig. 2).
	if !(med("GNP") <= med("NLANR")) {
		t.Errorf("GNP median %v should be <= NLANR %v", med("GNP"), med("NLANR"))
	}
	if !(med("NLANR") < med("P2PSim")) {
		t.Errorf("NLANR median %v should be < P2PSim %v", med("NLANR"), med("P2PSim"))
	}
	// NLANR: ~90%% of pairs within 15%% error.
	if p90("NLANR") > 0.25 {
		t.Errorf("NLANR p90 = %v, paper reports ~0.15", p90("NLANR"))
	}
	// P2PSim / PL-RTT: 90th percentile around 0.5.
	if p90("P2PSim") < 0.2 || p90("P2PSim") > 1.0 {
		t.Errorf("P2PSim p90 = %v, paper reports ~0.5", p90("P2PSim"))
	}
}

func TestFig3NLANRShapes(t *testing.T) {
	t.Parallel()
	tab, err := Fig3("NLANR", Quick, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(tab.Title, "Figure 3(a)") {
		t.Errorf("title %q lost its panel letter", tab.Title)
	}
	lip, svd, nmf := cell(t, tab, "10", "Lipschitz+PCA"), cell(t, tab, "10", "SVD"), cell(t, tab, "10", "NMF")
	// SVD and NMF comparable at d=10; both much better than Lipschitz
	// (paper: >5x at d=10; accept >=2.5x to keep the test robust).
	if lip < 2.5*svd {
		t.Errorf("d=10: Lipschitz %v should be >> SVD %v", lip, svd)
	}
	if nmf > 3*svd+0.05 {
		t.Errorf("d=10: NMF %v should be comparable to SVD %v", nmf, svd)
	}
	// Error decreases with dimension for SVD (monotone up to noise).
	if cell(t, tab, "1", "SVD") <= svd {
		t.Errorf("SVD error should fall from d=1 (%v) to d=10 (%v)", cell(t, tab, "1", "SVD"), svd)
	}
}

func TestFig3RejectsUnknownDataset(t *testing.T) {
	if _, err := Fig3("GNP", Quick, 1); err == nil {
		t.Fatal("Fig3 on GNP should be rejected (not in the paper)")
	}
}

func TestTable1Ordering(t *testing.T) {
	t.Parallel()
	tab, err := Table1(Quick, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("expected 3 rows, got %d", len(tab.Rows))
	}
	for _, c := range tab.Columns {
		if c.Unit != Seconds {
			t.Errorf("column %s: unit %v, want Seconds", c.Name, c.Unit)
		}
	}
	for _, r := range tab.Rows {
		svd, nmf := cell(t, tab, r.Label, "IDES/SVD"), cell(t, tab, r.Label, "IDES/NMF")
		ics, gnp := cell(t, tab, r.Label, "ICS"), cell(t, tab, r.Label, "GNP")
		// The paper's headline: GNP is orders of magnitude slower than the
		// factorization methods. Require >= 10x against the slower of
		// IDES/SVD and ICS to stay robust on any machine.
		if slowest := max(svd, ics); gnp < 10*slowest {
			t.Errorf("%s: GNP %v s should be >>10x IDES/ICS %v s", r.Label, gnp, slowest)
		}
		if svd <= 0 || nmf <= 0 || ics <= 0 {
			t.Errorf("%s: non-positive durations %v", r.Label, r.Values)
		}
	}
}

func TestFig6NLANRIDESWins(t *testing.T) {
	t.Parallel()
	tab, err := Fig6("NLANR", Quick, 42)
	if err != nil {
		t.Fatal(err)
	}
	med := func(sys string) float64 { return cell(t, tab, sys, "median") }
	// Paper: on NLANR, IDES (either algorithm) beats GNP and ICS; SVD
	// median ~0.03.
	if med("IDES/SVD") > 0.15 {
		t.Errorf("IDES/SVD median %v, paper reports ~0.03", med("IDES/SVD"))
	}
	if med("IDES/SVD") > med("ICS") {
		t.Errorf("IDES/SVD %v should beat ICS %v", med("IDES/SVD"), med("ICS"))
	}
	if med("IDES/SVD") > med("GNP") {
		t.Errorf("IDES/SVD %v should beat GNP %v", med("IDES/SVD"), med("GNP"))
	}
}

func TestFig6GNPDatasetRuns(t *testing.T) {
	t.Parallel()
	tab, err := Fig6("GNP", Quick, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("expected 4 systems, got %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if n := cell(t, tab, r.Label, "pairs"); n != 869*4 {
			t.Errorf("%s: %v pairs, want 869*4", r.Label, n)
		}
		if med := cell(t, tab, r.Label, "median"); med > 1.5 {
			t.Errorf("%s: median %v implausibly bad", r.Label, med)
		}
	}
}

// TestFig6GNPNMFMatchesSVD: on Fig 6(a)'s GNP landmark fit a converged
// NMF model predicts about as well as SVD at every seed — the paper's
// "SVD ≈ NMF for d < 10". GNP (the slow simplex system) is not run.
func TestFig6GNPNMFMatchesSVD(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 7, 42, 1234} {
		p, err := gnpAGNPProblem(seed)
		if err != nil {
			t.Fatal(err)
		}
		median := func(alg core.Algorithm) float64 {
			errs, err := runIDES(p, predictionDim, alg, seed)
			if err != nil {
				t.Fatal(err)
			}
			return stats.Median(errs)
		}
		if svd, nmf := median(core.SVD), median(core.NMF); nmf > 1.15*svd {
			t.Errorf("seed %d: IDES/NMF median %.4f is more than 15%% above IDES/SVD's %.4f", seed, nmf, svd)
		}
	}
}

func TestFig6RejectsUnknownDataset(t *testing.T) {
	if _, err := Fig6("PL-RTT", Quick, 1); err == nil {
		t.Fatal("Fig6 on PL-RTT should be rejected (not in the paper)")
	}
}

func TestFig7RobustnessShapes(t *testing.T) {
	t.Parallel()
	tab, err := Fig7("NLANR", Quick, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Columns) != 4 {
		t.Fatalf("expected 4 curves, got %d", len(tab.Columns))
	}
	m20 := func(f string) float64 { return cell(t, tab, f, "20 landmarks") }
	m50 := func(f string) float64 { return cell(t, tab, f, "50 landmarks") }
	// The service's placement degrades monotonically: losing landmarks
	// never helps. The slack covers sampling noise in cells where every
	// host is well conditioned and the column equals the paper's (50
	// landmarks: 0.0599 at f = 0 and 0.0576 at f = 0.1). It does not cover
	// the exact solve's spike at k = d (20 landmarks: 1.115 at f = 0.6,
	// then 0.28).
	for _, col := range []string{"20 landmarks", "50 landmarks"} {
		prev := 0.0
		for _, r := range tab.Rows {
			v := cell(t, tab, r.Label, col)
			if v < prev*0.95 {
				t.Errorf("%s: f=%s error %v is below %v at the previous fraction", col, r.Label, v, prev)
			}
			prev = v
		}
	}
	// With 50 landmarks, losing 40% barely hurts (paper's claim).
	if m50("0.4") > 2.5*m50("0.0")+0.05 {
		t.Errorf("50 landmarks: f=0.4 error %v vs f=0 %v — should be nearly flat", m50("0.4"), m50("0.0"))
	}
	// With 20 landmarks, high loss (0.8 leaves 4 < d=8 observations) must
	// be clearly worse than full observation.
	if m20("0.8") < 1.5*m20("0.0") {
		t.Errorf("20 landmarks: f=0.8 error %v vs f=0 %v — should degrade sharply", m20("0.8"), m20("0.0"))
	}
	// At every shared fraction, 50 landmarks should be at least as good as
	// 20 (more observations, same model class) — allow small noise slack.
	for _, f := range []string{"0.2", "0.4", "0.6"} {
		if m50(f) > m20(f)*1.5+0.05 {
			t.Errorf("f=%s: 50 landmarks (%v) should not be much worse than 20 (%v)", f, m50(f), m20(f))
		}
	}
}

func TestFig7RejectsUnknownDataset(t *testing.T) {
	if _, err := Fig7("GNP", Quick, 1); err == nil {
		t.Fatal("Fig7 on GNP should be rejected (not in the paper)")
	}
}

func TestSplitHostsDisjointDeterministic(t *testing.T) {
	lm1, h1 := splitHosts(50, 10, 7)
	lm2, _ := splitHosts(50, 10, 7)
	if len(lm1) != 10 || len(h1) != 40 {
		t.Fatalf("sizes %d/%d", len(lm1), len(h1))
	}
	seen := map[int]bool{}
	for _, i := range append(append([]int{}, lm1...), h1...) {
		if seen[i] {
			t.Fatal("overlap between landmarks and hosts")
		}
		seen[i] = true
	}
	for k := range lm1 {
		if lm1[k] != lm2[k] {
			t.Fatal("split must be deterministic for a seed")
		}
	}
}

func TestScaleString(t *testing.T) {
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Fatal("scale names wrong")
	}
}
