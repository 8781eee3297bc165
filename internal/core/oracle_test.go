package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ides-go/ides/internal/mat"
)

// placeOracle is the placement the service promises, spelled out term by
// term from mat.SVD: x = Σ_i φ(s_i)·(u_iᵀb)·v_i, with φ(s) = 1/s at or
// above the cutoff c = placeRCond·s_max and s/c² below it.
func placeOracle(t *testing.T, a *mat.Dense, b []float64) []float64 {
	t.Helper()
	dec, err := mat.SVD(a)
	if err != nil {
		t.Fatalf("oracle SVD: %v", err)
	}
	var smax float64
	for _, s := range dec.S {
		smax = math.Max(smax, s)
	}
	cut := placeRCond * smax
	x := make([]float64, a.Cols())
	for i, s := range dec.S {
		if s == 0 {
			continue
		}
		phi := 1 / s
		if s < cut {
			phi = s / (cut * cut)
		}
		var utb float64
		for r, br := range b {
			utb += dec.U.At(r, i) * br
		}
		for j := range x {
			x[j] += phi * utb * dec.V.At(j, i)
		}
	}
	return x
}

// agreesWithOracle reports whether got matches placeOracle(a, b) to 1e-9
// relative to the oracle's largest component.
func agreesWithOracle(t *testing.T, a *mat.Dense, b, got []float64) bool {
	t.Helper()
	want := placeOracle(t, a, b)
	scale := 1.0
	for _, w := range want {
		scale = math.Max(scale, math.Abs(w))
	}
	for j := range want {
		if !(math.Abs(got[j]-want[j]) <= 1e-9*scale) {
			t.Logf("component %d: got %v, oracle %v", j, got[j], want[j])
			return false
		}
	}
	return true
}

// FuzzPlaceOracle builds k x d reference matrices from the input — small
// integer entries, so duplicated rows and exact rank deficiency are
// common, with one column optionally squashed toward singularity — and
// checks that SolveVectors, SolveHost and PlaceAll all return the
// oracle's placement.
func FuzzPlaceOracle(f *testing.F) {
	for seed := range int64(8) {
		b := make([]byte, 64+32*seed)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return int(b)
		}
		d := 1 + next()%10
		k := 1 + next()%(3*d)
		squash := math.Pow(10, -float64(next()%14))
		squashed := next() % d
		ref := func() *mat.Dense {
			a := mat.NewDense(k, d)
			for i := range k {
				for j := range d {
					v := float64(next()%9-2) / 2
					if j == squashed {
						v *= squash
					}
					a.Set(i, j, v)
				}
			}
			return a
		}
		refOut, refIn := ref(), ref()
		dout, din := make([]float64, k), make([]float64, k)
		for i := range k {
			dout[i] = float64(next())
			din[i] = float64(next())
		}

		v, err := SolveVectors(refOut, refIn, dout, din)
		if err != nil {
			t.Fatal(err)
		}
		if !agreesWithOracle(t, refIn, dout, v.Out) || !agreesWithOracle(t, refOut, din, v.In) {
			t.Fatalf("SolveVectors differs from the oracle: %dx%d references", k, d)
		}
		m := &Model{X: refOut, Y: refIn}
		host, err := m.SolveHost(dout, din)
		if err != nil {
			t.Fatal(err)
		}
		place, err := m.PlaceAll(mat.FromRows([][]float64{dout}), mat.FromRows([][]float64{din}))
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]Vectors{"SolveHost": host, "PlaceAll": place.Vectors(0)} {
			if !agreesWithOracle(t, refIn, dout, got.Out) || !agreesWithOracle(t, refOut, din, got.In) {
				t.Fatalf("%s differs from the oracle: %dx%d references", name, k, d)
			}
		}
	})
}
