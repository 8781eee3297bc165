package solve

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/testutil"
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
	for _, o := range []SGDOptions{{Rate: -0.1}, {Rate: 1.1}, {Reg: -1}, {Rate: math.NaN()}, {Reg: math.NaN()}, {Reg: math.Inf(1)}} {
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
	if got := sv.batch.ms.d.At(1, 0); got != fwd {
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
	if got := sv.batch.ms.d.At(1, 0); got != rev {
		t.Fatalf("matrix (1,0) = %v after direct measurement, want %v", got, rev)
	}
	if got := sv.batch.ms.d.At(0, 1); got != fwd {
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
	est := sv.batch.model.EstimateLandmarks(1, 0)
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

// TestSGDPairStepIsTwoPeerSteps holds PeerStep's doc to its word: the
// central solver's Apply of (i→j) and (j→i) at one distance, and a first
// measurement of a pair that mirrors onto its reverse, publish exactly
// host i's PeerStep plus host j's PeerStep on the pre-step rows, bit for
// bit, and leave every other row as it was.
func TestSGDPairStepIsTwoPeerSteps(t *testing.T) {
	d := topoMatrix(t, 31)
	const i, j, ms = 3, 11, 75.0
	for _, alg := range []core.Algorithm{core.SVD, core.NMF} {
		for _, mirrored := range []bool{false, true} {
			sv, err := NewSGD(confLandmarks, core.FitOptions{Dim: confDim, Algorithm: alg, Seed: 7}, SGDOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sv.Apply(allDeltas(d)); err != nil {
				t.Fatal(err)
			}
			pre, err := sv.Seed()
			if err != nil {
				t.Fatal(err)
			}
			deltas := []Delta{{From: i, To: j, Millis: ms}, {From: j, To: i, Millis: ms}}
			if mirrored {
				// Forget the pair, so its next report is a first
				// measurement that the matrix mirrors.
				sv.batch.ms.d.Set(i, j, math.NaN())
				sv.batch.ms.d.Set(j, i, math.NaN())
				sv.batch.ms.observed -= 2
				deltas = deltas[:1]
			}
			got, err := sv.Apply(deltas)
			if err != nil {
				t.Fatal(err)
			}

			xi, yi, xj, yj := clone(pre.X.Row(i)), clone(pre.Y.Row(i)), clone(pre.X.Row(j)), clone(pre.Y.Row(j))
			clamp := alg == core.NMF
			PeerStep(xi, yi, pre.X.Row(j), pre.Y.Row(j), ms, sv.sgd, clamp)
			PeerStep(xj, yj, pre.X.Row(i), pre.Y.Row(i), ms, sv.sgd, clamp)
			want := map[int][2][]float64{i: {xi, yi}, j: {xj, yj}}
			for h := range confLandmarks {
				wx, wy := pre.X.Row(h), pre.Y.Row(h)
				if rows, ok := want[h]; ok {
					wx, wy = rows[0], rows[1]
				}
				if !sameBits(got.X.Row(h), wx) || !sameBits(got.Y.Row(h), wy) {
					t.Fatalf("%v, mirrored %v: host %d rows (%v, %v), two PeerSteps give (%v, %v)",
						alg, mirrored, h, got.X.Row(h), got.Y.Row(h), wx, wy)
				}
			}
		}
	}
}

// TestSGDStepAllocs: a seeded solver's gradient step works in its rows
// and its prev scratch, and allocates nothing.
func TestSGDStepAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation accounting changes under -race")
	}
	sv, err := NewSGD(confLandmarks, core.FitOptions{Dim: confDim, Algorithm: core.NMF, Seed: 7}, SGDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Apply(allDeltas(topoMatrix(t, 37))); err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Seed(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() { sv.step(2, 5, 60) })
	t.Logf("allocations per step: %.0f", allocs)
	if allocs != 0 {
		t.Fatalf("a seeded step allocates %.0f times, want 0", allocs)
	}
}
