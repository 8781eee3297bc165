package factor

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/stats"
)

// paperMatrix is the 4-host ring topology distance matrix from §4.1 of the
// paper (Figure 1): no Euclidean embedding of any dimensionality represents
// it exactly, but a rank-3 factorization does.
func paperMatrix() *mat.Dense {
	return mat.FromRows([][]float64{
		{0, 1, 1, 2},
		{1, 0, 2, 1},
		{1, 2, 0, 1},
		{2, 1, 1, 0},
	})
}

func TestPaperExampleSVD(t *testing.T) {
	d := paperMatrix()
	f, err := SVDFactor(d, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// §4.1: the d=3 factorization reconstructs D exactly because S44 = 0.
	if !f.Reconstruct().Equal(d, 1e-9) {
		t.Fatalf("rank-3 SVD factorization should be exact:\n%v", f.Reconstruct())
	}
	// Every estimate matches the matrix entry.
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if math.Abs(f.Estimate(i, j)-d.At(i, j)) > 1e-9 {
				t.Fatalf("Estimate(%d,%d) = %v want %v", i, j, f.Estimate(i, j), d.At(i, j))
			}
		}
	}
}

func TestSVDFactorShapes(t *testing.T) {
	d := paperMatrix()
	f, err := SVDFactor(d, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.X.Rows() != 4 || f.X.Cols() != 2 || f.Y.Rows() != 4 || f.Y.Cols() != 2 {
		t.Fatalf("factor shapes X %dx%d Y %dx%d", f.X.Rows(), f.X.Cols(), f.Y.Rows(), f.Y.Cols())
	}
	if f.Dim() != 2 {
		t.Fatalf("Dim = %d", f.Dim())
	}
}

func TestSVDFactorRectangular(t *testing.T) {
	// The model explicitly supports distance matrices between two different
	// host sets (footnote 3 in the paper), as in the 869x19 AGNP data.
	rng := rand.New(rand.NewSource(5))
	x := mat.NewDense(30, 4)
	y := mat.NewDense(7, 4)
	for i := range x.Data() {
		x.Data()[i] = rng.Float64()
	}
	for i := range y.Data() {
		y.Data()[i] = rng.Float64()
	}
	d := mat.MulABT(x, y)
	f, err := SVDFactor(d, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Reconstruct().Equal(d, 1e-8) {
		t.Fatal("rank-4 factorization of a rank-4 rectangular matrix should be exact")
	}
}

func TestSVDFactorRankClamp(t *testing.T) {
	f, err := SVDFactor(paperMatrix(), 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Dim() != 4 {
		t.Fatalf("rank should clamp to 4, got %d", f.Dim())
	}
}

func TestSVDFactorAsymmetric(t *testing.T) {
	// Factorization must represent asymmetric distances, the paper's
	// central claim. Construct an asymmetric matrix and check the model
	// reproduces Dij != Dji.
	d := mat.FromRows([][]float64{
		{0, 10, 20},
		{5, 0, 15},
		{25, 12, 0},
	})
	f, err := SVDFactor(d, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Reconstruct().Equal(d, 1e-8) {
		t.Fatal("full-rank factorization should reproduce the asymmetric matrix")
	}
	if math.Abs(f.Estimate(0, 1)-f.Estimate(1, 0)) < 1 {
		t.Fatal("model should preserve asymmetry of this matrix")
	}
}

func TestReconstructionErrorsExcludesDiagonal(t *testing.T) {
	d := paperMatrix()
	f, err := SVDFactor(d, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	errs := f.ReconstructionErrors(d)
	if len(errs) != 12 { // 4x4 minus diagonal
		t.Fatalf("len(errs) = %d want 12", len(errs))
	}
	for _, e := range errs {
		if e > 1e-8 {
			t.Fatalf("exact factorization should give zero errors, got %v", errs)
		}
	}
}

func TestNMFRankOneExact(t *testing.T) {
	// A rank-1 nonnegative matrix is exactly recoverable.
	u := []float64{1, 2, 3, 4}
	v := []float64{2, 1, 3, 5}
	d := mat.NewDense(4, 4)
	for i := range u {
		for j := range v {
			d.Set(i, j, u[i]*v[j])
		}
	}
	res, err := NMF(d, 1, NMFOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reconstruct().Equal(d, 1e-3*mat.MaxAbs(d)) {
		t.Fatalf("rank-1 NMF should be near exact, got\n%v\nwant\n%v", res.Reconstruct(), d)
	}
	if res.Rounds >= nmfMaxRounds {
		t.Fatalf("rank-1 NMF ran to the %d-round cap instead of stopping at convergence", res.Rounds)
	}
}

func TestNMFNonnegativity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := mat.NewDense(12, 12)
	for i := range d.Data() {
		d.Data()[i] = rng.Float64() * 100
	}
	res, err := NMF(d, 4, NMFOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.X.Data() {
		if v < 0 {
			t.Fatal("X must stay nonnegative")
		}
	}
	for _, v := range res.Y.Data() {
		if v < 0 {
			t.Fatal("Y must stay nonnegative")
		}
	}
	// Predicted distances are automatically nonnegative — the advantage the
	// paper cites for NMF over SVD.
	rec := res.Reconstruct()
	for _, v := range rec.Data() {
		if v < 0 {
			t.Fatal("NMF reconstruction must be nonnegative")
		}
	}
}

func TestNMFMonotoneDecrease(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := mat.NewDense(15, 15)
	for i := range d.Data() {
		d.Data()[i] = rng.Float64() * 50
	}
	assertMonotone(t, d, nil, 3, 2, 60)
}

// assertMonotone runs rounds plain update rounds from NMF's initialization
// and fails if the (masked) objective ever rises.
func assertMonotone(t *testing.T, d, mask *mat.Dense, dim int, seed int64, rounds int) {
	t.Helper()
	p := newNMFData(d, mask)
	x, y := nmfInit(d, mask, dim, seed)
	prev := nmfObjective(d, mask, x, y)
	for i := 1; i <= rounds; i++ {
		nmfRound(p, x, y)
		obj := nmfObjective(d, mask, x, y)
		// Allow a whisper of floating-point slack; Lee-Seung is monotone.
		if obj > prev*(1+1e-9)+1e-9 {
			t.Fatalf("objective increased at round %d: %v -> %v", i, prev, obj)
		}
		prev = obj
	}
}

// TestNMFStopsNoWorseThanFixedBudget: the stopping rule must not quit
// before the old fixed budget had got to — from the same start, the
// stopped fit's objective is at most the objective after 200 plain rounds.
func TestNMFStopsNoWorseThanFixedBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	xw := mat.NewDense(25, 4)
	yw := mat.NewDense(25, 4)
	for i := range xw.Data() {
		xw.Data()[i] = rng.Float64()
		yw.Data()[i] = rng.Float64()
	}
	d := mat.MulABT(xw, yw)
	for i := range d.Data() {
		d.Data()[i] *= 1 + 0.2*rng.Float64() // off rank 4, so the fit takes a while
	}
	mask := mat.NewDense(25, 25)
	mask.Fill(1)
	for i := range mask.Data() {
		if rng.Float64() < 0.2 {
			mask.Data()[i] = 0
		}
	}
	const seed = 14
	for _, m := range []*mat.Dense{nil, mask} {
		p := newNMFData(d, m)
		x, y := nmfInit(d, m, 6, seed)
		for i := 0; i < 200; i++ {
			nmfRound(p, x, y)
		}
		fixed := nmfObjective(d, m, x, y)
		res, err := NMF(d, 6, NMFOptions{Seed: seed, Mask: m})
		if err != nil {
			t.Fatal(err)
		}
		if res.FinalError > fixed {
			t.Errorf("masked=%v: stopped after %d rounds at objective %v, above 200 rounds' %v",
				m != nil, res.Rounds, res.FinalError, fixed)
		}
		if res.Rounds >= nmfMaxRounds {
			t.Errorf("masked=%v: ran to the %d-round cap", m != nil, res.Rounds)
		}
	}
}

// TestNMFMaskedUpdateMatchesEqs89: the masked round, written as products
// with zeroed entries, must equal Eqs. 8–9 summed over observed entries
// one by one — bit for bit, since a zeroed entry adds an exact zero.
func TestNMFMaskedUpdateMatchesEqs89(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const m, n, k = 13, 9, 3
	d := mat.NewDense(m, n)
	mask := mat.NewDense(m, n)
	for i := range d.Data() {
		d.Data()[i] = 100 * rng.Float64()
		if rng.Float64() > 0.3 {
			mask.Data()[i] = 1
		}
	}
	x, y := nmfInit(d, mask, k, 22)
	wantX, wantY := x.Clone(), y.Clone()
	nmfUpdateMasked(newNMFData(d, mask), x, y)

	// X_ia ← X_ia · Σ_j M_ij D_ij Y_ja / Σ_j M_ij (XYᵀ)_ij Y_ja, then Y
	// likewise against the updated X.
	est := mat.MulABT(wantX, wantY)
	for i := 0; i < m; i++ {
		for a := 0; a < k; a++ {
			var num, den float64
			for j := 0; j < n; j++ {
				if mask.At(i, j) != 0 {
					num += d.At(i, j) * wantY.At(j, a)
					den += est.At(i, j) * wantY.At(j, a)
				}
			}
			wantX.Set(i, a, wantX.At(i, a)*(num/(den+nmfEps)))
		}
	}
	est = mat.MulABT(wantX, wantY)
	for j := 0; j < n; j++ {
		for a := 0; a < k; a++ {
			var num, den float64
			for i := 0; i < m; i++ {
				if mask.At(i, j) != 0 {
					num += d.At(i, j) * wantX.At(i, a)
					den += est.At(i, j) * wantX.At(i, a)
				}
			}
			wantY.Set(j, a, wantY.At(j, a)*(num/(den+nmfEps)))
		}
	}
	if !x.Equal(wantX, 0) || !y.Equal(wantY, 0) {
		t.Fatal("masked round differs from Eqs. 8–9 over observed entries")
	}
}

// TestNMFStopsAtExactFit: on data the model reproduces exactly, the
// objective falls geometrically toward zero and each window keeps
// lowering it by far more than nmfTol; the fit must stop once the
// objective is negligible next to the data, not run to the cap.
func TestNMFStopsAtExactFit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xw := mat.NewDense(20, 2)
	yw := mat.NewDense(20, 2)
	for i := range xw.Data() {
		xw.Data()[i] = 1 + rng.Float64()
		yw.Data()[i] = 1 + rng.Float64()
	}
	d := mat.MulABT(xw, yw)
	res, err := NMF(d, 2, NMFOptions{Seed: 1}) // 5,000 rounds without the floor
	if err != nil {
		t.Fatal(err)
	}
	var norm float64
	for _, v := range d.Data() {
		norm += v * v
	}
	if res.Rounds >= nmfMaxRounds {
		t.Fatalf("exact rank-2 fit ran to the %d-round cap (objective %v)", res.Rounds, res.FinalError)
	}
	if res.FinalError > nmfTol*nmfTol*norm {
		t.Errorf("stopped at objective %v, above the floor %v", res.FinalError, nmfTol*nmfTol*norm)
	}
}

func TestNMFRejectsNegativeInput(t *testing.T) {
	d := mat.FromRows([][]float64{{1, -2}, {3, 4}})
	if _, err := NMF(d, 1, NMFOptions{}); err == nil {
		t.Fatal("NMF must reject negative input")
	}
}

func TestNMFRejectsNaN(t *testing.T) {
	d := mat.FromRows([][]float64{{1, math.NaN()}, {3, 4}})
	if _, err := NMF(d, 1, NMFOptions{}); err == nil {
		t.Fatal("NMF must reject NaN input")
	}
}

func TestNMFDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := mat.NewDense(8, 8)
	for i := range d.Data() {
		d.Data()[i] = rng.Float64() * 10
	}
	r1, err := NMF(d, 2, NMFOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NMF(d, 2, NMFOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !r1.X.Equal(r2.X, 0) || !r1.Y.Equal(r2.Y, 0) {
		t.Fatal("same seed must reproduce identical factors")
	}
	if r1.Rounds != r2.Rounds {
		t.Fatalf("same seed stopped after %d and %d rounds", r1.Rounds, r2.Rounds)
	}
}

func TestNMFMaskedIgnoresMissing(t *testing.T) {
	// Build a rank-2 matrix, hide 20% of entries, and verify the masked fit
	// reconstructs the *hidden* entries well — the capability §4.2 claims.
	rng := rand.New(rand.NewSource(10))
	xw := mat.NewDense(20, 2)
	yw := mat.NewDense(20, 2)
	for i := range xw.Data() {
		xw.Data()[i] = 0.5 + rng.Float64()
	}
	for i := range yw.Data() {
		yw.Data()[i] = 0.5 + rng.Float64()
	}
	d := mat.MulABT(xw, yw)
	mask := mat.NewDense(20, 20)
	mask.Fill(1)
	hidden := make([][2]int, 0)
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if rng.Float64() < 0.2 {
				mask.Set(i, j, 0)
				hidden = append(hidden, [2]int{i, j})
			}
		}
	}
	res, err := NMF(d, 2, NMFOptions{Seed: 4, Mask: mask})
	if err != nil {
		t.Fatal(err)
	}
	var errs []float64
	for _, h := range hidden {
		errs = append(errs, stats.RelativeError(d.At(h[0], h[1]), res.Estimate(h[0], h[1])))
	}
	if med := stats.Median(errs); med > 0.05 {
		t.Fatalf("median relative error on hidden entries = %v, want < 0.05", med)
	}
}

func TestNMFMaskedObjectiveOnlyObserved(t *testing.T) {
	// A corrupted-but-masked entry must not influence the fit at all.
	d := mat.FromRows([][]float64{{4, 2}, {2, 1}})
	dCorrupt := d.Clone()
	dCorrupt.Set(0, 1, 1e6)
	mask := mat.FromRows([][]float64{{1, 0}, {1, 1}})
	r1, err := NMF(d, 1, NMFOptions{Seed: 5, Mask: mask})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NMF(dCorrupt, 1, NMFOptions{Seed: 5, Mask: mask})
	if err != nil {
		t.Fatal(err)
	}
	if !r1.X.Equal(r2.X, 0) || !r1.Y.Equal(r2.Y, 0) {
		t.Fatal("masked entries must not affect the fit")
	}
}

func TestSVDvsNMFOnLowRankRTT(t *testing.T) {
	// On a synthetic low-rank RTT-like matrix both algorithms should reach
	// low median relative error at the true rank.
	rng := rand.New(rand.NewSource(12))
	xw := mat.NewDense(40, 5)
	yw := mat.NewDense(40, 5)
	for i := range xw.Data() {
		xw.Data()[i] = 1 + 4*rng.Float64()
	}
	for i := range yw.Data() {
		yw.Data()[i] = 1 + 4*rng.Float64()
	}
	d := mat.MulABT(xw, yw)
	fs, err := SVDFactor(d, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := NMF(d, 5, NMFOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if med := stats.Median(fs.ReconstructionErrors(d)); med > 1e-6 {
		t.Fatalf("SVD median error %v on exactly low-rank data", med)
	}
	if med := stats.Median(fn.ReconstructionErrors(d)); med > 0.05 {
		t.Fatalf("NMF median error %v on exactly low-rank data", med)
	}
}

// TestNMFMaskedMonotoneDecrease: the paper states the modified update
// rules (Eqs. 8-9) "converge to local minima of the error function" —
// the masked objective must be non-increasing across iterations.
func TestNMFMaskedMonotoneDecrease(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	d := mat.NewDense(18, 18)
	for i := range d.Data() {
		d.Data()[i] = rng.Float64() * 80
	}
	mask := mat.NewDense(18, 18)
	mask.Fill(1)
	for i := 0; i < 18; i++ {
		for j := 0; j < 18; j++ {
			if i != j && rng.Float64() < 0.25 {
				mask.Set(i, j, 0)
			}
		}
	}
	assertMonotone(t, d, mask, 4, 51, 80)
}

// TestFactorsAccessors pins the vector accessor semantics (shared storage).
func TestFactorsAccessors(t *testing.T) {
	f, err := SVDFactor(paperMatrix(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := f.Outgoing(1)
	in := f.Incoming(2)
	if len(out) != 2 || len(in) != 2 {
		t.Fatalf("vector lengths %d/%d", len(out), len(in))
	}
	// Mutating the returned slice mutates the model (documented sharing).
	old := f.Estimate(1, 2)
	out[0] += 1
	if f.Estimate(1, 2) == old {
		t.Fatal("Outgoing must share storage with the model")
	}
}
