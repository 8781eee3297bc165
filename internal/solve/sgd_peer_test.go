package solve

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ides-go/ides/internal/core"
)

func TestNewSGDRejectsNegativeReg(t *testing.T) {
	// Matching the Rate path: a negative regularizer must be an error,
	// not a silent coercion to zero that contradicts the documented 1e-4
	// default.
	if _, err := NewSGD(4, core.FitOptions{}, SGDOptions{Reg: -1e-4}); err == nil {
		t.Fatal("negative Reg accepted, want error")
	}
	// Zero still selects the default; positive values are kept.
	for _, reg := range []float64{0, 1e-4, 0.5} {
		if _, err := NewSGD(4, core.FitOptions{}, SGDOptions{Reg: reg}); err != nil {
			t.Fatalf("reg %v rejected: %v", reg, err)
		}
	}
}

func TestNormalizeDefaultsAndRejects(t *testing.T) {
	norm, err := SGDOptions{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Rate != 0.3 || norm.Reg != 1e-4 {
		t.Fatalf("Normalize zero value = %+v, want defaults 0.3/1e-4", norm)
	}
	norm, err = SGDOptions{Rate: 0.7, Reg: 1e-3}.Normalize()
	if err != nil || norm.Rate != 0.7 || norm.Reg != 1e-3 {
		t.Fatalf("Normalize must keep explicit values, got %+v, %v", norm, err)
	}
	for _, o := range []SGDOptions{{Rate: -0.1}, {Rate: 1.1}, {Reg: -1}} {
		if _, err := o.Normalize(); err == nil {
			t.Fatalf("Normalize(%+v) accepted, want error", o)
		}
	}
}

// TestMirroredStepOverriddenByDirectMeasurement pins the solver-level
// mirror-until-measured semantics: the first measurement of a pair steps
// the unmeasured reverse direction too, but once the reverse direction
// is measured directly, the direct value owns both the matrix entry and
// the model trajectory — later forward re-measurements never drag the
// reverse side again.
func TestMirroredStepOverriddenByDirectMeasurement(t *testing.T) {
	d := topoMatrix(t, 29)
	sv, err := NewSGD(confLandmarks, core.FitOptions{Dim: confDim, Algorithm: core.NMF, Seed: 7}, SGDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Withhold both directions of (0,1) so its first report after seeding
	// exercises the mirror path.
	var held []Delta
	for _, dl := range allDeltas(d) {
		if (dl.From == 0 && dl.To == 1) || (dl.From == 1 && dl.To == 0) {
			continue
		}
		held = append(held, dl)
	}
	if _, err := sv.Apply(held); err != nil {
		t.Fatal(err)
	}
	seeded, err := sv.Seed()
	if err != nil {
		t.Fatal(err)
	}

	const fwd, rev = 40.0, 120.0
	// The first forward measurement mirrors: the matrix adopts it for
	// (1,0) and the model steps the reverse direction too. A step on
	// (0,1) touches only X_0 and Y_1, so movement of the (1,0) estimate
	// (= X_1·Y_0) is proof the mirrored step ran.
	m1, err := sv.Apply([]Delta{{From: 0, To: 1, Millis: fwd}})
	if err != nil {
		t.Fatal(err)
	}
	if got := sv.ms.d.At(1, 0); got != fwd {
		t.Fatalf("matrix (1,0) = %v after mirror, want %v", got, fwd)
	}
	if m1.EstimateLandmarks(1, 0) == seeded.EstimateLandmarks(1, 0) {
		t.Fatal("mirrored delta must step the reverse direction of the model")
	}

	// A direct reverse measurement overrides the mirrored matrix entry.
	m2, err := sv.Apply([]Delta{{From: 1, To: 0, Millis: rev}})
	if err != nil {
		t.Fatal(err)
	}
	if got := sv.ms.d.At(1, 0); got != rev {
		t.Fatalf("matrix (1,0) = %v after direct measurement, want %v", got, rev)
	}
	if got := sv.ms.d.At(0, 1); got != fwd {
		t.Fatalf("matrix (0,1) = %v, direct reverse must not clobber the forward value", got)
	}

	// From here the forward direction no longer mirrors: re-measuring
	// (0,1) must leave the (1,0) estimate bitwise untouched.
	frozen := m2.EstimateLandmarks(1, 0)
	m3, err := sv.Apply([]Delta{{From: 0, To: 1, Millis: fwd}})
	if err != nil {
		t.Fatal(err)
	}
	if got := m3.EstimateLandmarks(1, 0); got != frozen {
		t.Fatalf("forward re-measurement moved the reverse estimate %v -> %v; mirror was not retired", frozen, got)
	}

	// And the trajectory converges on the direct value, not the mirror.
	for i := 0; i < 30; i++ {
		if _, err := sv.Apply([]Delta{{From: 1, To: 0, Millis: rev}}); err != nil {
			t.Fatal(err)
		}
	}
	est := retained(sv).EstimateLandmarks(1, 0)
	if math.Abs(est-rev) >= math.Abs(est-fwd) {
		t.Fatalf("reverse estimate %v sits closer to the mirrored %v than the measured %v", est, fwd, rev)
	}
}

// TestPeerStepSymmetricConvergence drives the decentralized update the
// way two gossiping peers do — each side applies PeerStep to its own
// rows using the partner's pre-exchange rows — and checks the shared
// estimate converges on the measured distance from both perspectives.
func TestPeerStepSymmetricConvergence(t *testing.T) {
	const dim, d = 8, 120.0
	rng := rand.New(rand.NewSource(1))
	mk := func() []float64 {
		row := make([]float64, dim)
		for k := range row {
			row[k] = 1 + rng.Float64()*3
		}
		return row
	}
	xi, yi, xj, yj := mk(), mk(), mk(), mk()
	opts, err := SGDOptions{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	cp := func(v []float64) []float64 { return append([]float64(nil), v...) }
	var lastDisp float64
	for round := 0; round < 200; round++ {
		pxi, pyi, pxj, pyj := cp(xi), cp(yi), cp(xj), cp(yj)
		lastDisp = PeerStep(xi, yi, pxj, pyj, d, opts, true)
		PeerStep(xj, yj, pxi, pyi, d, opts, true)
	}
	for _, est := range []float64{PeerEstimate(xi, yi, xj, yj), PeerEstimate(xj, yj, xi, yi)} {
		if math.Abs(est-d)/d > 0.02 {
			t.Fatalf("peer estimate %v after 200 rounds, want ~%v", est, d)
		}
	}
	if lastDisp < 0 || lastDisp > 0.05 {
		t.Fatalf("relative step magnitude %v at convergence, want small and nonnegative", lastDisp)
	}
	for _, row := range [][]float64{xi, yi, xj, yj} {
		for _, v := range row {
			if v < 0 {
				t.Fatalf("clamped PeerStep produced a negative coordinate %v", v)
			}
		}
	}
}

// TestPeerStepOrderIndependent: because each side only writes its own
// rows and reads the partner's pre-update rows, the update must not
// depend on which peer steps first.
func TestPeerStepOrderIndependent(t *testing.T) {
	const dim = 4
	rng := rand.New(rand.NewSource(2))
	mk := func() []float64 {
		row := make([]float64, dim)
		for k := range row {
			row[k] = rng.Float64() * 5
		}
		return row
	}
	xi, yi, xj, yj := mk(), mk(), mk(), mk()
	opts, err := SGDOptions{Rate: 0.5, Reg: 1e-4}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	cp := func(v []float64) []float64 { return append([]float64(nil), v...) }

	// Order A: i steps, then j (against i's pre-update rows).
	axi, ayi, axj, ayj := cp(xi), cp(yi), cp(xj), cp(yj)
	pxi, pyi := cp(axi), cp(ayi)
	PeerStep(axi, ayi, axj, ayj, 80, opts, false)
	PeerStep(axj, ayj, pxi, pyi, 80, opts, false)

	// Order B: j steps first.
	bxi, byi, bxj, byj := cp(xi), cp(yi), cp(xj), cp(yj)
	qxj, qyj := cp(bxj), cp(byj)
	PeerStep(bxj, byj, bxi, byi, 80, opts, false)
	PeerStep(bxi, byi, qxj, qyj, 80, opts, false)

	for k := 0; k < dim; k++ {
		if axi[k] != bxi[k] || ayi[k] != byi[k] || axj[k] != bxj[k] || ayj[k] != byj[k] {
			t.Fatalf("peer update depends on step order at k=%d", k)
		}
	}
}
