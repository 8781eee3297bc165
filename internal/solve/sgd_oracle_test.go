package solve

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/mat"
)

// referenceStep is SGDSolver.step as it was written before the central
// and the decentralized update shared halfStep: both rows in one loop,
// each reading the other's pre-step value.
func referenceStep(x, y *mat.Dense, i, j int, v float64, o SGDOptions, alg core.Algorithm) {
	xi := x.Row(i)
	yj := y.Row(j)
	e := mat.Dot(xi, yj) - v
	nx := mat.Dot(xi, xi)
	ny := mat.Dot(yj, yj)
	rate, reg := o.Rate, o.Reg
	clamp := alg == core.NMF
	for k := range xi {
		xk := xi[k]
		xi[k] -= rate * (e*yj[k]/(ny+sgdEps) + reg*xk)
		yj[k] -= rate * (e*xk/(nx+sgdEps) + reg*yj[k])
		if clamp {
			if xi[k] < 0 {
				xi[k] = 0
			}
			if yj[k] < 0 {
				yj[k] = 0
			}
		}
	}
}

// referencePeerStep is PeerStep as it was written before it became two
// halfSteps.
func referencePeerStep(xi, yi, xj, yj []float64, d float64, o SGDOptions, clamp bool) float64 {
	e1 := mat.Dot(xi, yj) - d
	e2 := mat.Dot(xj, yi) - d
	nyj := mat.Dot(yj, yj)
	nxj := mat.Dot(xj, xj)
	norm := mat.Dot(xi, xi) + mat.Dot(yi, yi)
	rate, reg := o.Rate, o.Reg
	var disp float64
	for k := range xi {
		nv := xi[k] - rate*(e1*yj[k]/(nyj+sgdEps)+reg*xi[k])
		if clamp && nv < 0 {
			nv = 0
		}
		dk := nv - xi[k]
		disp += dk * dk
		xi[k] = nv
	}
	for k := range yi {
		nv := yi[k] - rate*(e2*xj[k]/(nxj+sgdEps)+reg*yi[k])
		if clamp && nv < 0 {
			nv = 0
		}
		dk := nv - yi[k]
		disp += dk * dk
		yi[k] = nv
	}
	return math.Sqrt(disp / (norm + sgdEps))
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}

func clone(v []float64) []float64 { return append([]float64(nil), v...) }

// checkStepOracle runs PeerStep for host i, and an SGDSolver step of
// (i→j) then (j→i) over X = [xi; xj], Y = [yi; yj], against the
// references on copies of the same rows, and fails unless every row and
// the returned displacement match bit for bit.
func checkStepOracle(t *testing.T, xi, yi, xj, yj []float64, d float64, o SGDOptions, clamp bool) {
	t.Helper()
	got := [][]float64{clone(xi), clone(yi), clone(xj), clone(yj)}
	want := [][]float64{clone(xi), clone(yi), clone(xj), clone(yj)}
	gd := PeerStep(got[0], got[1], got[2], got[3], d, o, clamp)
	wd := referencePeerStep(want[0], want[1], want[2], want[3], d, o, clamp)
	if math.Float64bits(gd) != math.Float64bits(wd) {
		t.Fatalf("PeerStep displacement %v, reference %v (dim %d, %+v, clamp %v)", gd, wd, len(xi), o, clamp)
	}
	for r := range got {
		if !sameBits(got[r], want[r]) {
			t.Fatalf("PeerStep row %d = %v, reference %v (dim %d, %+v, clamp %v)", r, got[r], want[r], len(xi), o, clamp)
		}
	}

	alg := core.SVD
	if clamp {
		alg = core.NMF
	}
	s := &SGDSolver{
		batch: BatchSolver{opts: core.FitOptions{Algorithm: alg}},
		sgd:   o,
		x:     mat.FromRows([][]float64{xi, xj}),
		y:     mat.FromRows([][]float64{yi, yj}),
		prev:  make([]float64, len(xi)),
	}
	rx, ry := s.x.Clone(), s.y.Clone()
	s.step(0, 1, d)
	s.step(1, 0, d)
	referenceStep(rx, ry, 0, 1, d, o, alg)
	referenceStep(rx, ry, 1, 0, d, o, alg)
	if !sameBits(s.x.Data(), rx.Data()) || !sameBits(s.y.Data(), ry.Data()) {
		t.Fatalf("step X = %v, Y = %v; reference X = %v, Y = %v (dim %d, %+v, clamp %v)",
			s.x.Data(), s.y.Data(), rx.Data(), ry.Data(), len(xi), o, clamp)
	}
}

// oracleRows draws four dim-length rows at the given scale: signed
// values, so unclamped steps cross zero and clamped ones project.
func oracleRows(rng *rand.Rand, dim int, scale float64) (xi, yi, xj, yj []float64) {
	row := func() []float64 {
		v := make([]float64, dim)
		for k := range v {
			v[k] = (rng.Float64()*4 - 1) * scale
		}
		return v
	}
	return row(), row(), row(), row()
}

// TestSGDStepMatchesReference holds step and PeerStep to the references
// over 200 seeds: dims 1–17, clamp on and off, random rates and Rate 1,
// and a zero partner, where only sgdEps keeps the step finite.
func TestSGDStepMatchesReference(t *testing.T) {
	for seed := range int64(200) {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + int(seed)%17
		rate := rng.Float64()
		if seed%5 == 0 {
			rate = 1
		}
		o, err := SGDOptions{Rate: rate, Reg: rng.Float64() * 1e-2}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		xi, yi, xj, yj := oracleRows(rng, dim, math.Pow(10, float64(rng.Intn(7)-3)))
		if seed%7 == 0 {
			clear(xj)
			clear(yj)
		}
		d := rng.Float64() * 300
		for _, clamp := range []bool{false, true} {
			checkStepOracle(t, xi, yi, xj, yj, d, o, clamp)
		}
	}
}

// FuzzSGDStepOracle is TestSGDStepMatchesReference over fuzzer-chosen
// dims, options, distances and row scales, overflowing ones included.
func FuzzSGDStepOracle(f *testing.F) {
	f.Add(int64(1), uint8(7), 0.3, 1e-4, 40.0, 1.0, false, false)
	f.Add(int64(2), uint8(0), 1.0, 0.0, 0.0, 1e-3, true, false)
	f.Add(int64(3), uint8(16), 0.5, 1e-2, 1e6, 1e150, true, true)
	f.Fuzz(func(t *testing.T, seed int64, dim uint8, rate, reg, d, scale float64, clamp, zeroPartner bool) {
		o, err := SGDOptions{Rate: rate, Reg: reg}.Normalize()
		if err != nil {
			return
		}
		xi, yi, xj, yj := oracleRows(rand.New(rand.NewSource(seed)), 1+int(dim)%17, scale)
		if zeroPartner {
			clear(xj)
			clear(yj)
		}
		checkStepOracle(t, xi, yi, xj, yj, d, o, clamp)
	})
}
