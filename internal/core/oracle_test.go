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

// sameVectors reports whether two placements returned the same bits and
// the same error.
func sameVectors(a Vectors, aErr error, b Vectors, bErr error) bool {
	if (aErr == nil) != (bErr == nil) || aErr != nil && aErr.Error() != bErr.Error() {
		return false
	}
	same := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	return same(a.Out, b.Out) && same(a.In, b.In)
}

// FuzzPlaceOracle builds k x d reference matrices from the input — small
// integer entries, so duplicated rows and exact rank deficiency are
// common, with one column optionally squashed toward singularity — and
// checks that SolveVectors returns the oracle's placement; that a model
// over the same references places a host through SolveHost bit for bit
// as SolveVectors does, errors included, on the call that decomposes the
// model and on one that reuses the decomposition; and that every row of
// PlaceAll is that host's SolveHost, bit for bit.
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
		const hosts = 3
		dout, din := mat.NewDense(hosts, k), mat.NewDense(hosts, k)
		for h := range hosts {
			for i := range k {
				dout.Set(h, i, float64(next()))
				din.Set(h, i, float64(next()))
			}
		}

		v, err := SolveVectors(refOut, refIn, dout.Row(0), din.Row(0))
		m := &Model{X: refOut, Y: refIn}
		for _, call := range []string{"first", "cached"} {
			host, herr := m.SolveHost(dout.Row(0), din.Row(0))
			if !sameVectors(host, herr, v, err) {
				t.Fatalf("%s SolveHost = %v, %v; SolveVectors = %v, %v: %dx%d references", call, host, herr, v, err, k, d)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if !agreesWithOracle(t, refIn, dout.Row(0), v.Out) || !agreesWithOracle(t, refOut, din.Row(0), v.In) {
			t.Fatalf("SolveVectors differs from the oracle: %dx%d references", k, d)
		}
		place, err := m.PlaceAll(dout, din)
		if err != nil {
			t.Fatal(err)
		}
		for h := range hosts {
			host, err := m.SolveHost(dout.Row(h), din.Row(h))
			if !sameVectors(place.Vectors(h), nil, host, err) {
				t.Fatalf("PlaceAll row %d = %v; SolveHost = %v, %v: %dx%d references", h, place.Vectors(h), host, err, k, d)
			}
		}
	})
}
