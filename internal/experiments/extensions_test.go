package experiments

import (
	"math"
	"testing"
)

func TestAblationMissingData(t *testing.T) {
	t.Parallel()
	tab, err := AblationMissingData(42)
	if err != nil {
		t.Fatal(err)
	}
	const obs, hid = "median err (observed)", "median err (hidden)"
	// With no missing entries there is nothing hidden, so nothing to
	// report; observed error must be the familiar NLANR floor.
	if h := cell(t, tab, "0%", hid); !math.IsNaN(h) {
		t.Errorf("f=0 hidden median %v, want NaN: no entry was hidden", h)
	}
	if o := cell(t, tab, "0%", obs); o > 0.15 {
		t.Errorf("f=0 observed median %v too high", o)
	}
	// At 30% missing, the fit must still generalize: hidden-entry error in
	// the same ballpark as observed-entry error (within 3x), far below the
	// "no model" regime of ~1.0.
	o, h := cell(t, tab, "30%", obs), cell(t, tab, "30%", hid)
	if math.IsNaN(h) || h == 0 {
		t.Fatal("f=0.3 must have hidden entries")
	}
	if h > 0.5 {
		t.Errorf("f=0.3 hidden median %v — masked NMF is not generalizing", h)
	}
	if h > 5*o+0.05 {
		t.Errorf("hidden (%v) should track observed (%v)", h, o)
	}
}

func TestExtVivaldi(t *testing.T) {
	t.Parallel()
	tab, err := ExtVivaldi(42)
	if err != nil {
		t.Fatal(err)
	}
	med := func(sys string) float64 { return cell(t, tab, sys, "median") }
	for _, r := range tab.Rows {
		if m, p90 := med(r.Label), cell(t, tab, r.Label, "p90"); m <= 0 || p90 < m {
			t.Errorf("%s: implausible quantiles median %v p90 %v", r.Label, m, p90)
		}
	}
	// The factorized model must beat every Euclidean variant on data with
	// triangle-inequality violations (the paper's core claim; Vivaldi is a
	// Euclidean model and inherits the limitation).
	for _, sys := range []string{"Vivaldi", "Vivaldi+height", "Lipschitz+PCA"} {
		if med("IDES/SVD") > med(sys) {
			t.Errorf("IDES/SVD (%v) should beat %s (%v)", med("IDES/SVD"), sys, med(sys))
		}
	}
}
