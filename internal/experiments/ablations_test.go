package experiments

import "testing"

func TestAblationSVDAlgorithms(t *testing.T) {
	t.Parallel()
	tab, err := AblationSVDAlgorithms(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		// Randomized truncation must track the exact leading spectrum.
		if dev := cell(t, tab, r.Label, "max spectral deviation"); dev > 1e-3 {
			t.Errorf("n=%s: approx spectral deviation %v too large", r.Label, dev)
		}
		if cell(t, tab, r.Label, "exact") <= 0 || cell(t, tab, r.Label, "approx") <= 0 {
			t.Errorf("n=%s: non-positive timings %v", r.Label, r.Values)
		}
	}
}

func TestAblationNMFIterations(t *testing.T) {
	t.Parallel()
	tab, err := AblationNMFIterations(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("expected 4 fits, got %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		// factor's round cap, nmfMaxRounds, is 5000 (nmf.go notes this
		// copy); a fit that reaches it did not converge.
		if rounds := cell(t, tab, r.Label, "rounds"); rounds >= 5000 {
			t.Errorf("%s: ran to the %v-round cap instead of stopping by the rule", r.Label, rounds)
		}
	}
	// Stopping by the rule must be no worse than the old fixed budget of
	// 200 rounds, which read 0.0445 here.
	if med := cell(t, tab, "NLANR matrix, d=10", "median error"); med > 0.0445 {
		t.Errorf("NLANR d=10 median %v, above the 200-round fit's 0.0445", med)
	}
}

func TestAblationHostSolveNNLS(t *testing.T) {
	t.Parallel()
	tab, err := AblationHostSolveNNLS(42)
	if err != nil {
		t.Fatal(err)
	}
	// §5.1: no significant accuracy difference between the two solves.
	unc, nnls := cell(t, tab, "unconstrained", "median error"), cell(t, tab, "nnls", "median error")
	if ratio := nnls / unc; ratio > 2 || ratio < 0.5 {
		t.Errorf("NNLS median %v vs unconstrained %v: paper reports no significant difference", nnls, unc)
	}
	if neg := cell(t, tab, "nnls", "negative predictions"); neg != 0 {
		t.Errorf("NNLS made %v negative predictions", neg)
	}
}

func TestAblationKNodes(t *testing.T) {
	t.Parallel()
	tab, err := AblationKNodes(42)
	if err != nil {
		t.Fatal(err)
	}
	// k = all landmarks should be at least as accurate as k = d (the
	// paper: larger k leads to better prediction results).
	if all, d := cell(t, tab, "30", "median error"), cell(t, tab, "8", "median error"); all > d*1.2+0.02 {
		t.Errorf("k=30 (%v) should beat k=8 (%v)", all, d)
	}
}

func TestAblationLandmarkSelection(t *testing.T) {
	t.Parallel()
	tab, err := AblationLandmarkSelection(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("got %d policies", len(tab.Rows))
	}
	// [21]: random selection is fairly effective for m >= 20 — it must be
	// within a small factor of the engineered spread policy.
	randMed, spreadMed := cell(t, tab, "random", "median error"), cell(t, tab, "farthest-point", "median error")
	if randMed > 4*spreadMed+0.05 {
		t.Errorf("random (%v) should be competitive with farthest-point (%v)", randMed, spreadMed)
	}
}

func TestAblationHostChaining(t *testing.T) {
	t.Parallel()
	tab, err := AblationHostChaining(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("got %d depths", len(tab.Rows))
	}
	// Wave 0 (placed from landmarks) should be the most accurate or near
	// it; deep waves may degrade but must stay finite/sane.
	for _, r := range tab.Rows {
		if med := cell(t, tab, r.Label, "median error"); !(med >= 0 && med <= 10) {
			t.Errorf("depth %s: implausible median %v", r.Label, med)
		}
	}
	if d0, d2 := cell(t, tab, "0", "median error"), cell(t, tab, "2", "median error"); d2 < d0*0.2 {
		t.Errorf("depth-2 chaining (%v) should not dramatically beat landmark placement (%v)", d2, d0)
	}
}
