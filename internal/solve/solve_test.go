package solve

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/stats"
	"github.com/ides-go/ides/internal/topology"
)

// Documented conformance bounds: on a generated internal/topology RTT
// matrix (the same synthetic internet the simnet tests run over), a
// rank-8 model over 24 landmarks must reconstruct off-diagonal pairs
// with median modified relative error <= 0.30 and p90 <= 1.0 — after
// seeding AND after a pass of jittered incremental updates. The
// topology's per-stub-pair noise is full rank, so these bounds are
// loose enough for every solver yet tight enough that mixing rows from
// two fits, or a diverging update rule, blows through them.
const (
	confDim       = 8
	confLandmarks = 24
	confMedianMax = 0.30
	confP90Max    = 1.0
)

// topoMatrix generates the landmark RTT matrix the conformance suite
// fits.
func topoMatrix(t *testing.T, seed int64) *mat.Dense {
	t.Helper()
	topo, err := topology.Generate(topology.Config{Seed: seed, NumHosts: confLandmarks})
	if err != nil {
		t.Fatal(err)
	}
	return topo.RTTMatrix()
}

// allDeltas flattens a measurement matrix into the delta stream a
// landmark fleet would report.
func allDeltas(d *mat.Dense) []Delta {
	m, _ := d.Dims()
	deltas := make([]Delta, 0, m*(m-1))
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i != j {
				deltas = append(deltas, Delta{From: i, To: j, Millis: d.At(i, j)})
			}
		}
	}
	return deltas
}

// modelErrors scores every off-diagonal pair of the model against d.
func modelErrors(model *core.Model, d *mat.Dense) []float64 {
	m, _ := d.Dims()
	errs := make([]float64, 0, m*(m-1))
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i != j {
				errs = append(errs, stats.RelativeError(d.At(i, j), model.EstimateLandmarks(i, j)))
			}
		}
	}
	return errs
}

func checkBounds(t *testing.T, stage string, model *core.Model, d *mat.Dense) {
	t.Helper()
	errs := modelErrors(model, d)
	if med := stats.Median(errs); med > confMedianMax {
		t.Fatalf("%s: median relative error %.4f > %.2f", stage, med, confMedianMax)
	}
	if p90 := stats.Percentile(errs, 90); p90 > confP90Max {
		t.Fatalf("%s: p90 relative error %.4f > %.2f", stage, p90, confP90Max)
	}
}

// conformanceCases builds every Solver implementation/algorithm pair
// the suite runs: the same seeded inputs must land inside the same
// documented bounds for all of them.
func conformanceCases(t *testing.T) map[string]Solver {
	t.Helper()
	cases := make(map[string]Solver)
	for _, alg := range []core.Algorithm{core.SVD, core.NMF} {
		opts := core.FitOptions{Dim: confDim, Algorithm: alg, Seed: 7}
		b, err := NewBatch(confLandmarks, opts)
		if err != nil {
			t.Fatal(err)
		}
		cases["batch/"+alg.String()] = b
		s, err := NewSGD(confLandmarks, opts, SGDOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cases["sgd/"+alg.String()] = s
	}
	return cases
}

// batchOf returns the BatchSolver that records a solver's measurements
// and retains its latest model (nil before the first Seed): the solver
// itself, or the one an SGDSolver seeds through.
func batchOf(sv Solver) *BatchSolver {
	if s, ok := sv.(*SGDSolver); ok {
		return &s.batch
	}
	return sv.(*BatchSolver)
}

// TestSolverConformance runs every implementation through the same
// lifecycle — record, seed, jittered incremental updates — and holds
// them all to the documented accuracy bounds.
func TestSolverConformance(t *testing.T) {
	d := topoMatrix(t, 11)
	for name, sv := range conformanceCases(t) {
		t.Run(name, func(t *testing.T) {
			// Before any measurement, a fit must fail, not fabricate.
			if _, err := sv.Seed(); err == nil {
				t.Fatal("Seed with no measurements must fail")
			}
			if batchOf(sv).model != nil {
				t.Fatal("Model before first Seed must be nil")
			}
			// Pre-seed Apply records but cannot produce a model.
			model, err := sv.Apply(allDeltas(d))
			if err != nil || model != nil {
				t.Fatalf("pre-seed Apply = %v, %v; want nil, nil", model, err)
			}
			seeded, err := sv.Seed()
			if err != nil {
				t.Fatal(err)
			}
			if seeded == nil || batchOf(sv).model != seeded {
				t.Fatal("Seed must produce and retain the model")
			}
			if got := sv.Drift(); got != 0 {
				t.Fatalf("drift %v after Seed, want 0", got)
			}
			checkBounds(t, "seeded", seeded, d)

			// An RTT no network produces is refused whole: no model, and
			// nothing recorded for the next Seed to fit.
			ms := batchOf(sv).ms
			was, observed := ms.d.At(0, 1), ms.observed
			if model, err := sv.Apply([]Delta{{From: 0, To: 1, Millis: 1e200}}); err != nil || model != nil {
				t.Fatalf("Apply of a 1e200 ms delta = %v, %v; want nil, nil", model, err)
			}
			if ms.d.At(0, 1) != was || ms.observed != observed || batchOf(sv).model != seeded {
				t.Fatalf("a 1e200 ms delta was recorded: (0,1) %v -> %v", was, ms.d.At(0, 1))
			}

			// A pass of jittered re-measurements: incremental solvers
			// must publish refreshed models that stay within bounds;
			// batch solvers must keep reporting nil until the next Seed.
			rng := rand.New(rand.NewSource(5))
			latest := seeded
			for round := 0; round < 3; round++ {
				deltas := allDeltas(d)
				for i := range deltas {
					deltas[i].Millis *= 1 + 0.05*(rng.Float64()-0.5)
				}
				model, err := sv.Apply(deltas)
				if err != nil {
					t.Fatal(err)
				}
				switch sv.(type) {
				case *SGDSolver:
					if model == nil {
						t.Fatal("seeded incremental Apply must produce a model")
					}
					if model == latest {
						t.Fatal("Apply republished the previous model")
					}
					latest = model
				default:
					if model != nil {
						t.Fatal("batch Apply must not produce a model")
					}
					if sv.Drift() != 0 {
						t.Fatal("batch drift must stay 0")
					}
				}
			}
			checkBounds(t, "after jittered updates", batchOf(sv).model, d)

			// A corrective re-seed folds the recorded measurements and
			// resets drift for every implementation.
			reseeded, err := sv.Seed()
			if err != nil {
				t.Fatal(err)
			}
			if sv.Drift() != 0 {
				t.Fatalf("drift %v after re-Seed, want 0", sv.Drift())
			}
			checkBounds(t, "re-seeded", reseeded, d)
		})
	}
}

// TestSGDTracksShiftedMeasurements: when the network actually changes —
// one landmark's RTTs double — repeated incremental updates must pull
// the model to the new truth and the accumulated drift must grow
// monotonically, giving the lifecycle its epoch-bump signal.
func TestSGDTracksShiftedMeasurements(t *testing.T) {
	d := topoMatrix(t, 13)
	sv, err := NewSGD(confLandmarks, core.FitOptions{Dim: confDim, Seed: 7}, SGDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Apply(allDeltas(d)); err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Seed(); err != nil {
		t.Fatal(err)
	}

	// Landmark 0 moves: all its distances double.
	shifted := d.Clone()
	for j := 1; j < confLandmarks; j++ {
		shifted.Set(0, j, d.At(0, j)*2)
		shifted.Set(j, 0, d.At(j, 0)*2)
	}
	var lastDrift float64
	var model *core.Model
	for round := 0; round < 12; round++ {
		if model, err = sv.Apply(allDeltas(shifted)); err != nil {
			t.Fatal(err)
		}
		drift := sv.Drift()
		// Drift is displacement from the seed, not path length: as the
		// factors settle around the shifted truth it may dip slightly
		// between rounds, but it must never collapse while the model
		// still sits far from the seed.
		if drift < 0.9*lastDrift {
			t.Fatalf("drift collapsed %v -> %v while updates kept landing", lastDrift, drift)
		}
		lastDrift = drift
	}
	if lastDrift <= 0.05 {
		t.Fatalf("drift %v after a doubled row, want a clear epoch-bump signal", lastDrift)
	}
	// The served estimates for the moved landmark must track the shift.
	errs := make([]float64, 0, 2*(confLandmarks-1))
	for j := 1; j < confLandmarks; j++ {
		errs = append(errs, stats.RelativeError(shifted.At(0, j), model.EstimateLandmarks(0, j)))
		errs = append(errs, stats.RelativeError(shifted.At(j, 0), model.EstimateLandmarks(j, 0)))
	}
	if med := stats.Median(errs); med > confMedianMax {
		t.Fatalf("moved-landmark median error %.4f after tracking, want <= %.2f", med, confMedianMax)
	}
}

// TestPublishedModelsAreImmutable: a model returned by Seed or Apply
// must never change, however many updates follow — the property that
// lets the lifecycle publish models to lock-free readers and the reason
// revisions can never mix rows from two fits.
func TestPublishedModelsAreImmutable(t *testing.T) {
	d := topoMatrix(t, 17)
	sv, err := NewSGD(confLandmarks, core.FitOptions{Dim: confDim, Seed: 7}, SGDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Apply(allDeltas(d)); err != nil {
		t.Fatal(err)
	}
	seeded, err := sv.Seed()
	if err != nil {
		t.Fatal(err)
	}
	frozen := make([]float64, confLandmarks)
	for j := range frozen {
		frozen[j] = seeded.EstimateLandmarks(0, j)
	}
	rev, err := sv.Apply([]Delta{{From: 0, To: 1, Millis: d.At(0, 1) * 3}})
	if err != nil {
		t.Fatal(err)
	}
	if rev.EstimateLandmarks(0, 1) == frozen[1] {
		t.Fatal("revision did not absorb the update")
	}
	for j := range frozen {
		if got := seeded.EstimateLandmarks(0, j); got != frozen[j] {
			t.Fatalf("held seed model changed at pair (0,%d): %v -> %v", j, frozen[j], got)
		}
	}
}

// TestSGDNMFKeepsNonnegativeFactors: under core.NMF the projected
// gradient steps must preserve the algorithm's nonnegativity guarantee.
func TestSGDNMFKeepsNonnegativeFactors(t *testing.T) {
	d := topoMatrix(t, 19)
	sv, err := NewSGD(confLandmarks, core.FitOptions{Dim: confDim, Algorithm: core.NMF, Seed: 7}, SGDOptions{Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Apply(allDeltas(d)); err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Seed(); err != nil {
		t.Fatal(err)
	}
	// Aggressive rate-1 steps toward tiny distances would drive entries
	// negative without the projection.
	deltas := allDeltas(d)
	for i := range deltas {
		deltas[i].Millis = 0.01
	}
	model, err := sv.Apply(deltas)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*mat.Dense{model.X, model.Y} {
		for _, v := range m.Data() {
			if v < 0 {
				t.Fatalf("NMF-mode factor went negative: %v", v)
			}
		}
	}
}

// TestSeedValidation: the density and completeness failures the old
// server fit path produced must survive the move into the solver.
func TestSeedValidation(t *testing.T) {
	// Too few measurements for the rank.
	sv, err := NewBatch(confLandmarks, core.FitOptions{Dim: confDim, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Apply([]Delta{{From: 0, To: 1, Millis: 10}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Seed(); err == nil || !strings.Contains(err.Error(), "pairs measured") {
		t.Fatalf("sparse Seed error = %v, want pair-count failure", err)
	}

	// Dense enough, but with a hole: SVD must refuse, NMF must cope.
	d := topoMatrix(t, 23)
	for _, tc := range []struct {
		alg    core.Algorithm
		wantOK bool
	}{{core.SVD, false}, {core.NMF, true}} {
		sv, err := NewBatch(confLandmarks, core.FitOptions{Dim: confDim, Algorithm: tc.alg, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		// Withhold every measurement touching the last landmark pair
		// (m-2, m-1) in both directions so mirroring cannot fill it.
		var held []Delta
		for _, dl := range allDeltas(d) {
			if (dl.From == confLandmarks-2 && dl.To == confLandmarks-1) ||
				(dl.From == confLandmarks-1 && dl.To == confLandmarks-2) {
				continue
			}
			held = append(held, dl)
		}
		if _, err := sv.Apply(held); err != nil {
			t.Fatal(err)
		}
		_, err = sv.Seed()
		if tc.wantOK && err != nil {
			t.Fatalf("NMF Seed with a hole: %v", err)
		}
		if !tc.wantOK && (err == nil || !strings.Contains(err.Error(), "SVD")) {
			t.Fatalf("SVD Seed with a hole = %v, want refusal", err)
		}
	}

	// Mask is solver-managed.
	if _, err := NewBatch(4, core.FitOptions{Mask: mat.NewDense(4, 4)}); err == nil {
		t.Fatal("NewBatch must reject a caller-supplied mask")
	}
	if _, err := NewSGD(4, core.FitOptions{Mask: mat.NewDense(4, 4)}, SGDOptions{}); err == nil {
		t.Fatal("NewSGD must reject a caller-supplied mask")
	}
	if _, err := NewBatch(1, core.FitOptions{}); err == nil {
		t.Fatal("NewBatch must reject a single landmark")
	}
}

func TestKindParseAndString(t *testing.T) {
	for _, tc := range []struct {
		s    string
		kind Kind
	}{{"batch", Batch}, {"sgd", SGD}} {
		k, err := ParseKind(tc.s)
		if err != nil || k != tc.kind {
			t.Fatalf("ParseKind(%q) = %v, %v", tc.s, k, err)
		}
		if k.String() != tc.s {
			t.Fatalf("String() = %q, want %q", k.String(), tc.s)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("unknown kind must error")
	}
	if _, err := New(Kind(99), 4, core.FitOptions{}, SGDOptions{}); err == nil {
		t.Fatal("New with unknown kind must error")
	}
	for _, kind := range []Kind{Batch, SGD} {
		sv, err := New(kind, 4, core.FitOptions{}, SGDOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, sgd := sv.(*SGDSolver); sgd != (kind == SGD) {
			t.Fatalf("%v built a %T", kind, sv)
		}
	}
}

// TestRecordMirrorsUntilMeasured: a delta mirrors onto the unmeasured
// reverse direction (RTT symmetry assumption) but never overwrites an
// independent reverse measurement — the exact semantics the server's
// report handler had before the matrix moved into the solver.
func TestRecordMirrorsUntilMeasured(t *testing.T) {
	ms := newMeasurements(3)
	if accepted, mirrored := ms.record(Delta{From: 0, To: 1, Millis: 10}); !accepted || !mirrored {
		t.Fatal("first measurement must be accepted and mirror")
	}
	if got := ms.d.At(1, 0); got != 10 {
		t.Fatalf("mirror = %v", got)
	}
	// Independent reverse measurement wins and stops future mirroring.
	if accepted, mirrored := ms.record(Delta{From: 1, To: 0, Millis: 14}); !accepted || mirrored {
		t.Fatal("measured reverse direction must be accepted without mirroring")
	}
	if accepted, mirrored := ms.record(Delta{From: 0, To: 1, Millis: 12}); !accepted || mirrored {
		t.Fatal("re-measurement must not overwrite the independent reverse")
	}
	if got := ms.d.At(1, 0); got != 14 {
		t.Fatalf("reverse = %v, want 14", got)
	}
	if got := ms.d.At(0, 1); got != 12 {
		t.Fatalf("forward = %v, want 12", got)
	}
	// Garbage is dropped wholesale.
	for _, dl := range []Delta{
		{From: -1, To: 0, Millis: 1}, {From: 0, To: 3, Millis: 1},
		{From: 1, To: 1, Millis: 1}, {From: 0, To: 2, Millis: -4},
		{From: 0, To: 2, Millis: maxRTTMillis * 1.01},
	} {
		if accepted, _ := ms.record(dl); accepted {
			t.Fatalf("accepted invalid delta %+v", dl)
		}
	}
	// (0,1) plus its mirror: a mirrored write counts as observed for the
	// density check — exactly like the old server matrix, where mirrors
	// were real entries. The independent (1,0) re-measurement and the
	// (0,1) refresh overwrite in place.
	if ms.observed != 2 {
		t.Fatalf("observed = %d, want 2", ms.observed)
	}
}

func TestNewSGDRejectsOutOfRangeRate(t *testing.T) {
	for _, rate := range []float64{-0.5, 1.5} {
		if _, err := NewSGD(4, core.FitOptions{}, SGDOptions{Rate: rate}); err == nil {
			t.Fatalf("rate %v accepted, want out-of-range error", rate)
		}
	}
	// Zero selects the default; 1 is the top of the range.
	for _, rate := range []float64{0, 1} {
		if _, err := NewSGD(4, core.FitOptions{}, SGDOptions{Rate: rate}); err != nil {
			t.Fatalf("rate %v rejected: %v", rate, err)
		}
	}
}
