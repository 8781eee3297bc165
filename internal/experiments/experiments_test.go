package experiments

import (
	"testing"

	"github.com/ides-go/ides/internal/stats"
)

// These tests run the Quick-scale experiments and assert the *qualitative*
// results the paper reports — who wins, by roughly what factor, and where
// curves bend. `idesbench -exp all -full` prints the absolute numbers
// (README.md, "Reproducing the paper").

func TestFig2Shapes(t *testing.T) {
	series, err := Fig2(Quick, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 5 {
		t.Fatalf("expected 5 datasets, got %d", len(series))
	}
	med := map[string]float64{}
	p90 := map[string]float64{}
	for _, s := range series {
		c := stats.NewCDF(s.Errors)
		med[s.Label] = c.Quantile(0.5)
		p90[s.Label] = c.Quantile(0.9)
	}
	// GNP easiest; P2PSim hardest; NLANR in between (paper Fig. 2).
	if !(med["GNP"] <= med["NLANR"]) {
		t.Errorf("GNP median %v should be <= NLANR %v", med["GNP"], med["NLANR"])
	}
	if !(med["NLANR"] < med["P2PSim"]) {
		t.Errorf("NLANR median %v should be < P2PSim %v", med["NLANR"], med["P2PSim"])
	}
	// NLANR: ~90%% of pairs within 15%% error.
	if p90["NLANR"] > 0.25 {
		t.Errorf("NLANR p90 = %v, paper reports ~0.15", p90["NLANR"])
	}
	// P2PSim / PL-RTT: 90th percentile around 0.5.
	if p90["P2PSim"] < 0.2 || p90["P2PSim"] > 1.0 {
		t.Errorf("P2PSim p90 = %v, paper reports ~0.5", p90["P2PSim"])
	}
}

func TestFig3NLANRShapes(t *testing.T) {
	pts, err := Fig3("NLANR", Quick, 42)
	if err != nil {
		t.Fatal(err)
	}
	byDim := map[int]Fig3Point{}
	for _, p := range pts {
		byDim[p.Dim] = p
	}
	p10, ok := byDim[10]
	if !ok {
		t.Fatal("no d=10 point")
	}
	// SVD and NMF comparable at d=10; both much better than Lipschitz
	// (paper: >5x at d=10; accept >=2.5x to keep the test robust).
	if p10.Lipschitz < 2.5*p10.SVD {
		t.Errorf("d=10: Lipschitz %v should be >> SVD %v", p10.Lipschitz, p10.SVD)
	}
	if p10.NMF > 3*p10.SVD+0.05 {
		t.Errorf("d=10: NMF %v should be comparable to SVD %v", p10.NMF, p10.SVD)
	}
	// Error decreases with dimension for SVD (monotone up to noise).
	if byDim[1].SVD <= byDim[10].SVD {
		t.Errorf("SVD error should fall from d=1 (%v) to d=10 (%v)", byDim[1].SVD, byDim[10].SVD)
	}
}

func TestTable1Ordering(t *testing.T) {
	rows, err := Table1(Quick, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("expected 3 rows, got %d", len(rows))
	}
	for _, r := range rows {
		// The paper's headline: GNP is orders of magnitude slower than the
		// factorization methods. Require >= 10x against the slower of
		// IDES/SVD and ICS to stay robust on any machine.
		slowest := r.IDESSVD
		if r.ICS > slowest {
			slowest = r.ICS
		}
		if r.GNP < 10*slowest {
			t.Errorf("%s: GNP %v should be >>10x IDES/ICS %v", r.Dataset, r.GNP, slowest)
		}
		if r.IDESSVD <= 0 || r.IDESNMF <= 0 || r.ICS <= 0 {
			t.Errorf("%s: non-positive durations %+v", r.Dataset, r)
		}
	}
}

func TestFig6NLANRIDESWins(t *testing.T) {
	series, err := Fig6("NLANR", Quick, 42)
	if err != nil {
		t.Fatal(err)
	}
	med := map[string]float64{}
	for _, s := range series {
		med[s.Label] = stats.Median(s.Errors)
	}
	// Paper: on NLANR, IDES (either algorithm) beats GNP and ICS; SVD
	// median ~0.03.
	if med["IDES/SVD"] > 0.15 {
		t.Errorf("IDES/SVD median %v, paper reports ~0.03", med["IDES/SVD"])
	}
	if med["IDES/SVD"] > med["ICS"] {
		t.Errorf("IDES/SVD %v should beat ICS %v", med["IDES/SVD"], med["ICS"])
	}
	if med["IDES/SVD"] > med["GNP"] {
		t.Errorf("IDES/SVD %v should beat GNP %v", med["IDES/SVD"], med["GNP"])
	}
}

func TestFig6GNPDatasetRuns(t *testing.T) {
	series, err := Fig6("GNP", Quick, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("expected 4 systems, got %d", len(series))
	}
	for _, s := range series {
		if len(s.Errors) != 869*4 {
			t.Errorf("%s: %d pairs, want 869*4", s.Label, len(s.Errors))
		}
		if med := stats.Median(s.Errors); med > 1.5 {
			t.Errorf("%s: median %v implausibly bad", s.Label, med)
		}
	}
}

func TestFig6RejectsUnknownDataset(t *testing.T) {
	if _, err := Fig6("PL-RTT", Quick, 1); err == nil {
		t.Fatal("Fig6 on PL-RTT should be rejected (not in the paper)")
	}
}

func TestFig7RobustnessShapes(t *testing.T) {
	series, err := Fig7("NLANR", Quick, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("expected 2 curves, got %d", len(series))
	}
	var m20, m50 Fig7Series
	for _, s := range series {
		switch s.NumLandmarks {
		case 20:
			m20 = s
		case 50:
			m50 = s
		}
	}
	at := func(s Fig7Series, f float64) float64 {
		for i, frac := range s.Fractions {
			if frac == f {
				return s.Medians[i]
			}
		}
		t.Fatalf("fraction %v missing", f)
		return 0
	}
	// With 50 landmarks, losing 40% barely hurts (paper's claim).
	if at(m50, 0.4) > 2.5*at(m50, 0)+0.05 {
		t.Errorf("50 landmarks: f=0.4 error %v vs f=0 %v — should be nearly flat",
			at(m50, 0.4), at(m50, 0))
	}
	// With 20 landmarks, high loss (0.8 leaves 4 < d=8 observations) must
	// be clearly worse than full observation.
	if at(m20, 0.8) < 1.5*at(m20, 0) {
		t.Errorf("20 landmarks: f=0.8 error %v vs f=0 %v — should degrade sharply",
			at(m20, 0.8), at(m20, 0))
	}
	// At every shared fraction, 50 landmarks should be at least as good as
	// 20 (more observations, same model class) — allow small noise slack.
	for _, f := range []float64{0.2, 0.4, 0.6} {
		if at(m50, f) > at(m20, f)*1.5+0.05 {
			t.Errorf("f=%v: 50 landmarks (%v) should not be much worse than 20 (%v)",
				f, at(m50, f), at(m20, f))
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
