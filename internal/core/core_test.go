package core

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/ides-go/ides/internal/dataset"
	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/stats"
)

// ringMatrix is the 4-landmark topology of the paper's Figures 1 and 4.
func ringMatrix() *mat.Dense {
	return mat.FromRows([][]float64{
		{0, 1, 1, 2},
		{1, 0, 2, 1},
		{1, 2, 0, 1},
		{2, 1, 1, 0},
	})
}

func fitRing(t *testing.T) *Model {
	t.Helper()
	m, err := FitSVD(ringMatrix(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFitSVDReconstructsLandmarks(t *testing.T) {
	m := fitRing(t)
	d := ringMatrix()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if got := m.EstimateLandmarks(i, j); math.Abs(got-d.At(i, j)) > 1e-9 {
				t.Fatalf("EstimateLandmarks(%d,%d) = %v want %v", i, j, got, d.At(i, j))
			}
		}
	}
}

// TestPaperExampleOrdinaryHosts reproduces the §5.1 worked example exactly:
// two ordinary hosts H1, H2 with distance vectors [0.5 1.5 1.5 2.5] and
// [2.5 1.5 1.5 0.5] to the four ring landmarks. Landmark distances are
// exactly preserved and the H1–H2 distance is estimated as 3.25 (the true
// distance is 3). The estimates are invariant to the rotation ambiguity of
// the SVD, so the check is robust even though raw vectors may differ in
// sign from the paper's listing.
func TestPaperExampleOrdinaryHosts(t *testing.T) {
	m := fitRing(t)
	d1 := []float64{0.5, 1.5, 1.5, 2.5}
	d2 := []float64{2.5, 1.5, 1.5, 0.5}
	h1, err := m.SolveHost(d1, d1)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := m.SolveHost(d2, d2)
	if err != nil {
		t.Fatal(err)
	}
	// Host-to-landmark distances exactly preserved.
	for l := 0; l < 4; l++ {
		got := mat.Dot(h1.Out, m.Incoming(l))
		if math.Abs(got-d1[l]) > 1e-9 {
			t.Fatalf("H1→L%d = %v want %v", l+1, got, d1[l])
		}
		got = mat.Dot(m.Outgoing(l), h1.In)
		if math.Abs(got-d1[l]) > 1e-9 {
			t.Fatalf("L%d→H1 = %v want %v", l+1, got, d1[l])
		}
	}
	// The paper's headline number: estimated H1→H2 distance is 3.25.
	if got := Estimate(h1, h2); math.Abs(got-3.25) > 1e-9 {
		t.Fatalf("H1→H2 estimate = %v want 3.25", got)
	}
	if got := Estimate(h2, h1); math.Abs(got-3.25) > 1e-9 {
		t.Fatalf("H2→H1 estimate = %v want 3.25", got)
	}
}

// TestPaperExamplePartialObservation reproduces the §5.2 worked example:
// H2 measures only L2, L4 and the already-placed H1 ([1.5 0.5 3]), and the
// unmeasured distances are estimated as H2→L1 = 2.3 and H2→L3 = 1.3.
func TestPaperExamplePartialObservation(t *testing.T) {
	m := fitRing(t)
	d1 := []float64{0.5, 1.5, 1.5, 2.5}
	h1, err := m.SolveHost(d1, d1)
	if err != nil {
		t.Fatal(err)
	}
	// Reference set: L2, L4, H1.
	refOut := mat.FromRows([][]float64{m.Outgoing(1), m.Outgoing(3), h1.Out})
	refIn := mat.FromRows([][]float64{m.Incoming(1), m.Incoming(3), h1.In})
	meas := []float64{1.5, 0.5, 3}
	h2, err := SolveVectors(refOut, refIn, meas, meas)
	if err != nil {
		t.Fatal(err)
	}
	if got := mat.Dot(h2.Out, m.Incoming(0)); math.Abs(got-2.3) > 1e-9 {
		t.Fatalf("H2→L1 = %v want 2.3", got)
	}
	if got := mat.Dot(h2.Out, m.Incoming(2)); math.Abs(got-1.3) > 1e-9 {
		t.Fatalf("H2→L3 = %v want 1.3", got)
	}
	// Measured distances are preserved exactly (3 refs, 3 dims).
	if got := mat.Dot(h2.Out, m.Incoming(1)); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("H2→L2 = %v want 1.5", got)
	}
	if got := mat.Dot(h2.Out, h1.In); math.Abs(got-3.0) > 1e-9 {
		t.Fatalf("H2→H1 = %v want 3.0", got)
	}
}

func TestSolveHostSubsetMatchesPaperExample(t *testing.T) {
	// Same as the partial-observation example but restricted to landmark
	// references via SolveHostSubset: H1 measures L1, L2, L3 only; §5.2
	// reports the unmeasured H1→L4 is estimated as exactly 2.5.
	m := fitRing(t)
	h1, err := m.SolveHostSubset([]int{0, 1, 2}, []float64{0.5, 1.5, 1.5}, []float64{0.5, 1.5, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := mat.Dot(h1.Out, m.Incoming(3)); math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("H1→L4 = %v want 2.5", got)
	}
}

func TestSolveHostSubsetTooFewObservations(t *testing.T) {
	m := fitRing(t)
	_, err := m.SolveHostSubset([]int{0, 1}, []float64{1, 2}, []float64{1, 2})
	if err == nil {
		t.Fatal("k < d must be rejected")
	}
}

func TestFitRejectsMaskWithSVD(t *testing.T) {
	d := ringMatrix()
	mask := mat.NewDense(4, 4)
	mask.Fill(1)
	_, err := Fit(d, FitOptions{Dim: 2, Algorithm: SVD, Mask: mask})
	if !errors.Is(err, ErrMaskRequiresNMF) {
		t.Fatalf("err = %v want ErrMaskRequiresNMF", err)
	}
}

func TestFitNMFWithMask(t *testing.T) {
	d := ringMatrix()
	mask := mat.NewDense(4, 4)
	mask.Fill(1)
	mask.Set(0, 3, 0)
	mask.Set(3, 0, 0)
	m, err := Fit(d, FitOptions{Dim: 3, Algorithm: NMF, Seed: 3, Mask: mask})
	if err != nil {
		t.Fatal(err)
	}
	// Observed entries should fit well despite the hole.
	var errs []float64
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j || mask.At(i, j) == 0 {
				continue
			}
			errs = append(errs, stats.RelativeError(d.At(i, j), m.EstimateLandmarks(i, j)))
		}
	}
	if med := stats.Median(errs); med > 0.1 {
		t.Fatalf("masked NMF median landmark error %v", med)
	}
}

func TestFitRejectsNonSquareMatrix(t *testing.T) {
	// Every other invalid input returns an error; the non-square case
	// must too, not panic — a malformed matrix reaching Fit through the
	// service path should fail the fit, not kill the process.
	d := mat.NewDense(3, 4)
	for _, alg := range []Algorithm{SVD, NMF} {
		m, err := Fit(d, FitOptions{Dim: 2, Algorithm: alg})
		if !errors.Is(err, ErrNonSquare) {
			t.Fatalf("%v: err = %v, want ErrNonSquare", alg, err)
		}
		if m != nil {
			t.Fatalf("%v: model %+v returned with error", alg, m)
		}
	}
}

func TestFitUnknownAlgorithm(t *testing.T) {
	if _, err := Fit(ringMatrix(), FitOptions{Dim: 2, Algorithm: Algorithm(99)}); err == nil {
		t.Fatal("unknown algorithm must error")
	}
	if got := Algorithm(99).String(); got != "Algorithm(99)" {
		t.Fatalf("String = %q", got)
	}
	if SVD.String() != "SVD" || NMF.String() != "NMF" {
		t.Fatal("algorithm names wrong")
	}
}

// TestFitDimensionClamp: a fit's dimensionality is FitOptions.DimFor —
// Dim, DefaultDim when unset, capped at the landmark count.
func TestFitDimensionClamp(t *testing.T) {
	gnp, err := dataset.GenGNP(7)
	if err != nil {
		t.Fatal(err)
	}
	lm := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}
	large := gnp.D.SelectRows(lm).SelectCols(lm)
	for _, tc := range []struct {
		name      string
		landmarks *mat.Dense
		dim, want int
	}{
		{"unset", large, 0, DefaultDim},
		{"above m", ringMatrix(), 100, 4},
		{"below m", large, 3, 3},
	} {
		m, _ := tc.landmarks.Dims()
		if got := (FitOptions{Dim: tc.dim}).DimFor(m); got != tc.want {
			t.Fatalf("%s: DimFor(%d) = %d, want %d", tc.name, m, got, tc.want)
		}
		model, err := FitSVD(tc.landmarks, tc.dim, 1)
		if err != nil {
			t.Fatal(err)
		}
		if model.Dim() != tc.want {
			t.Fatalf("%s: fitted Dim = %d, want %d", tc.name, model.Dim(), tc.want)
		}
	}
}

func TestPlaceAllMatchesSolveHost(t *testing.T) {
	// Batch placement must agree with per-host solves to machine precision.
	d, err := dataset.GenGNP(7)
	if err != nil {
		t.Fatal(err)
	}
	lm := []int{0, 1, 2, 3, 4, 5, 6, 7}
	dl := d.D.SelectRows(lm).SelectCols(lm)
	model, err := FitSVD(dl, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	hostIdx := []int{10, 11, 12, 13, 14}
	dout := d.D.SelectRows(hostIdx).SelectCols(lm)
	din := d.D.SelectCols(hostIdx).SelectRows(lm).T()
	place, err := model.PlaceAll(dout, din)
	if err != nil {
		t.Fatal(err)
	}
	if place.NumHosts() != len(hostIdx) {
		t.Fatalf("NumHosts = %d", place.NumHosts())
	}
	for i := range hostIdx {
		single, err := model.SolveHost(dout.Row(i), din.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		v := place.Vectors(i)
		for k := range single.Out {
			if math.Abs(single.Out[k]-v.Out[k]) > 1e-9 || math.Abs(single.In[k]-v.In[k]) > 1e-9 {
				t.Fatalf("host %d: batch and single solves disagree", i)
			}
		}
	}
}

func TestPredictionAccuracyGNPDataset(t *testing.T) {
	// End-to-end IDES flow on a synthetic dataset: fit 10 landmarks,
	// place the rest, predict host-host distances never measured.
	d, err := dataset.GenNLANR(11)
	if err != nil {
		t.Fatal(err)
	}
	n := d.Rows()
	rng := rand.New(rand.NewSource(13))
	perm := rng.Perm(n)
	lm := perm[:20]
	hosts := perm[20:]
	dl := d.D.SelectRows(lm).SelectCols(lm)
	model, err := FitSVD(dl, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	dout := d.D.SelectRows(hosts).SelectCols(lm)
	din := d.D.SelectCols(hosts).SelectRows(lm).T()
	place, err := model.PlaceAll(dout, din)
	if err != nil {
		t.Fatal(err)
	}
	var errs []float64
	for a := range hosts {
		for b := range hosts {
			if a == b {
				continue
			}
			errs = append(errs, stats.RelativeError(d.D.At(hosts[a], hosts[b]), place.Estimate(a, b)))
		}
	}
	med := stats.Median(errs)
	if med > 0.15 {
		t.Fatalf("median prediction error %v on NLANR-like data, want < 0.15", med)
	}
}

func TestSolveVectorsNNLSNonnegative(t *testing.T) {
	d := ringMatrix()
	m, err := FitNMF(d, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	dv := []float64{0.5, 1.5, 1.5, 2.5}
	h, err := SolveVectorsNNLS(m.X, m.Y, dv, dv)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range append(append([]float64{}, h.Out...), h.In...) {
		if v < 0 {
			t.Fatalf("NNLS vectors must be nonnegative, got %v / %v", h.Out, h.In)
		}
	}
	// With an NMF model, predictions from NNLS vectors are nonnegative.
	for l := 0; l < 4; l++ {
		if est := mat.Dot(h.Out, m.Incoming(l)); est < 0 {
			t.Fatalf("NNLS prediction to L%d = %v negative", l+1, est)
		}
	}
}

func TestAsymmetricModelPreservesDirection(t *testing.T) {
	// Fit an asymmetric landmark matrix and verify the fitted model keeps
	// D(i,j) != D(j,i) — impossible for any Euclidean embedding.
	d := mat.FromRows([][]float64{
		{0, 10, 22, 31},
		{14, 0, 19, 27},
		{25, 16, 0, 12},
		{35, 30, 15, 0},
	})
	m, err := FitSVD(d, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.EstimateLandmarks(0, 1)-10) > 1e-8 || math.Abs(m.EstimateLandmarks(1, 0)-14) > 1e-8 {
		t.Fatalf("asymmetric entries not preserved: %v / %v",
			m.EstimateLandmarks(0, 1), m.EstimateLandmarks(1, 0))
	}
}

func TestSolveHostLengthPanics(t *testing.T) {
	m := fitRing(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.SolveHost([]float64{1}, []float64{1}) //nolint:errcheck
}

func TestAlgorithmParseAndString(t *testing.T) {
	for _, want := range []Algorithm{SVD, NMF} {
		// Both spellings: String's own and the lower-case flag value.
		for _, s := range []string{want.String(), strings.ToLower(want.String())} {
			if got, err := ParseAlgorithm(s); err != nil || got != want {
				t.Fatalf("ParseAlgorithm(%q) = %v, %v; want %v", s, got, err, want)
			}
		}
	}
	if _, err := ParseAlgorithm("pca"); err == nil {
		t.Fatal("unknown algorithm must error")
	}
}
