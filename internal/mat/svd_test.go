package mat

import (
	"math"
	"math/rand"
	"testing"
)

// checkOrthonormalCols verifies MᵀM ≈ I.
func checkOrthonormalCols(t *testing.T, m *Dense, tol float64, label string) {
	t.Helper()
	g := MulATB(m, m)
	n := g.Rows()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(g.At(i, j)-want) > tol {
				t.Fatalf("%s: gram(%d,%d) = %v want %v", label, i, j, g.At(i, j), want)
			}
		}
	}
}

func TestSVDSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randomMatrix(rng, 12, 12)
	dec, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	checkOrthonormalCols(t, dec.U, 1e-10, "U")
	checkOrthonormalCols(t, dec.V, 1e-10, "V")
	if !dec.Reconstruct().Equal(a, 1e-9) {
		t.Fatal("U S Vᵀ does not reconstruct A")
	}
	for i := 1; i < len(dec.S); i++ {
		if dec.S[i] > dec.S[i-1]+1e-12 {
			t.Fatalf("singular values not sorted: %v", dec.S)
		}
	}
}

func TestSVDTall(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomMatrix(rng, 20, 7)
	dec, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if dec.U.Rows() != 20 || dec.U.Cols() != 7 || dec.V.Rows() != 7 {
		t.Fatalf("unexpected factor shapes U %dx%d V %dx%d", dec.U.Rows(), dec.U.Cols(), dec.V.Rows(), dec.V.Cols())
	}
	if !dec.Reconstruct().Equal(a, 1e-9) {
		t.Fatal("tall reconstruct failed")
	}
}

func TestSVDWide(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randomMatrix(rng, 6, 15)
	dec, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if dec.U.Rows() != 6 || dec.V.Rows() != 15 {
		t.Fatalf("unexpected factor shapes U %dx%d V %dx%d", dec.U.Rows(), dec.U.Cols(), dec.V.Rows(), dec.V.Cols())
	}
	if !dec.Reconstruct().Equal(a, 1e-9) {
		t.Fatal("wide reconstruct failed")
	}
}

// TestSVDPaperMatrix checks the 4x4 ring-topology distance matrix from §4.1
// of the paper: singular values {4, 2, 2, 0} and an exact rank-3
// factorization.
func TestSVDPaperMatrix(t *testing.T) {
	d := FromRows([][]float64{
		{0, 1, 1, 2},
		{1, 0, 2, 1},
		{1, 2, 0, 1},
		{2, 1, 1, 0},
	})
	dec, err := SVD(d)
	if err != nil {
		t.Fatal(err)
	}
	wantS := []float64{4, 2, 2, 0}
	for i, want := range wantS {
		if math.Abs(dec.S[i]-want) > 1e-10 {
			t.Fatalf("S[%d] = %v want %v (all: %v)", i, dec.S[i], want, dec.S)
		}
	}
	// Rank-3 truncation must reconstruct exactly because S[3] = 0.
	if !dec.Truncate(3).Reconstruct().Equal(d, 1e-10) {
		t.Fatal("rank-3 truncation should be exact for the paper matrix")
	}
	checkOrthonormalCols(t, dec.U, 1e-10, "U")
	checkOrthonormalCols(t, dec.V, 1e-10, "V")
}

func TestSVDRankDeficient(t *testing.T) {
	// Rank-2 matrix built from an outer product pair.
	u := FromRows([][]float64{{1, 0}, {2, 1}, {3, -1}, {0, 2}, {1, 1}})
	v := FromRows([][]float64{{1, 2}, {0, 1}, {2, 0}, {1, 1}})
	a := MulABT(u, v)
	dec, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i < len(dec.S); i++ {
		if dec.S[i] > 1e-10 {
			t.Fatalf("expected rank 2, S = %v", dec.S)
		}
	}
	checkOrthonormalCols(t, dec.U, 1e-8, "U (rank deficient)")
	if !dec.Reconstruct().Equal(a, 1e-9) {
		t.Fatal("rank-deficient reconstruct failed")
	}
}

func TestSVDDuplicatedRowConverges(t *testing.T) {
	// Two equal rows of a square matrix (a host that measured one landmark
	// twice): rotation leaves one column of rounding noise, which Jacobi
	// used to rotate against the others until it ran out of sweeps.
	a := FromRows([][]float64{
		{4.533760567842227, 5.315215483135968, 0.9501059565475442, 1.4027726909838414},
		{5.186255403211128, -1.4227039009683302, -1.2806543227347096, 1.1940807881993705},
		{2.7813225331173723, -0.7872178135293845, -0.5356727176646614, -1.3910909597350165},
		{2.7813225331173723, -0.7872178135293845, -0.5356727176646614, -1.3910909597350165},
	})
	dec, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if dec.S[3] > 1e-12*dec.S[0] {
		t.Fatalf("expected rank 3, S = %v", dec.S)
	}
	checkOrthonormalCols(t, dec.U, 1e-10, "U (duplicated row)")
	checkOrthonormalCols(t, dec.V, 1e-10, "V (duplicated row)")
	if !dec.Reconstruct().Equal(a, 1e-9) {
		t.Fatal("duplicated-row reconstruct failed")
	}
}

func TestSVDZeroMatrix(t *testing.T) {
	a := NewDense(4, 3)
	dec, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range dec.S {
		if s != 0 {
			t.Fatalf("zero matrix should have zero spectrum, got %v", dec.S)
		}
	}
	checkOrthonormalCols(t, dec.U, 1e-8, "U (zero)")
}

func TestSVDDiagonal(t *testing.T) {
	a := FromRows([][]float64{{3, 0}, {0, -5}})
	dec, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dec.S[0]-5) > 1e-12 || math.Abs(dec.S[1]-3) > 1e-12 {
		t.Fatalf("S = %v want [5 3]", dec.S)
	}
}

func TestTruncate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomMatrix(rng, 8, 8)
	dec, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	tr := dec.Truncate(3)
	if tr.U.Cols() != 3 || len(tr.S) != 3 || tr.V.Cols() != 3 {
		t.Fatal("Truncate shape wrong")
	}
	// Truncating beyond available rank returns the receiver unchanged.
	if dec.Truncate(100) != dec {
		t.Fatal("over-truncation should be a no-op")
	}
}

func TestTruncatedSVDMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	// Low-rank plus small noise, the regime RTT matrices live in.
	ul := randomMatrix(rng, 60, 5)
	vl := randomMatrix(rng, 60, 5)
	a := MulABT(ul, vl)
	for i := range a.Data() {
		a.Data()[i] += 0.01 * rng.NormFloat64()
	}
	exact, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := TruncatedSVD(a, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		rel := math.Abs(exact.S[i]-approx.S[i]) / exact.S[i]
		if rel > 1e-6 {
			t.Fatalf("σ%d: exact %v approx %v (rel %v)", i, exact.S[i], approx.S[i], rel)
		}
	}
	// Rank-5 reconstructions should agree closely in Frobenius norm.
	diff := Sub(exact.Truncate(5).Reconstruct(), approx.Reconstruct())
	if rel := FrobeniusNorm(diff) / FrobeniusNorm(a); rel > 1e-5 {
		t.Fatalf("reconstruction divergence %v", rel)
	}
}

func TestTruncatedSVDDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := randomMatrix(rng, 30, 30)
	r1, err := TruncatedSVD(a, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := TruncatedSVD(a, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.S {
		if r1.S[i] != r2.S[i] {
			t.Fatal("same seed must give identical spectra")
		}
	}
}

func TestTruncatedSVDRankClamp(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := randomMatrix(rng, 6, 4)
	r, err := TruncatedSVD(a, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.S) != 4 {
		t.Fatalf("rank should clamp to min dim, got %d", len(r.S))
	}
}
