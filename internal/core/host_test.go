package core

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/testutil"
)

// placementProblem fits a 20-landmark, 8-dimensional model (the
// benchmark deployments' shape) and draws one host's distances to it.
func placementProblem(tb testing.TB, seed int64) (x, y *mat.Dense, dout, din []float64) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	const landmarks, dim = 20, 8
	m, err := FitSVD(randomDistanceMatrix(rng, landmarks, dim), dim, seed)
	if err != nil {
		tb.Fatal(err)
	}
	dout, din = make([]float64, landmarks), make([]float64, landmarks)
	for i := range dout {
		dout[i] = rng.Float64() * 100
		din[i] = rng.Float64() * 100
	}
	return m.X, m.Y, dout, din
}

// TestSolveHostConcurrentFirstUse starts eight first placements on a
// fresh model at once: whichever decomposition each of them computed,
// all must answer what SolveVectors does, bit for bit.
func TestSolveHostConcurrentFirstUse(t *testing.T) {
	const callers = 8
	for seed := range int64(20) {
		x, y, dout, din := placementProblem(t, seed)
		want, wantErr := SolveVectors(x, y, dout, din)
		m := &Model{X: x, Y: y}
		got := make([]Vectors, callers)
		errs := make([]error, callers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for c := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[c], errs[c] = m.SolveHost(dout, din)
			}()
		}
		close(start)
		wg.Wait()
		for c := range callers {
			if !sameVectors(got[c], errs[c], want, wantErr) {
				t.Fatalf("seed %d, caller %d: SolveHost = %v, %v; SolveVectors = %v, %v", seed, c, got[c], errs[c], want, wantErr)
			}
		}
	}
}

// TestSolveHostSeesReplacedMatrices places a host, assigns the model new
// X and Y, and places it again: the second answer must be the new
// model's, not one from the factors of the old.
func TestSolveHostSeesReplacedMatrices(t *testing.T) {
	x1, y1, dout, din := placementProblem(t, 1)
	x2, y2, _, _ := placementProblem(t, 2)
	m := &Model{X: x1, Y: y1}
	if _, err := m.SolveHost(dout, din); err != nil {
		t.Fatal(err)
	}
	m.X, m.Y = x2, y2
	got, err := m.SolveHost(dout, din)
	want, wantErr := SolveVectors(x2, y2, dout, din)
	if !sameVectors(got, err, want, wantErr) {
		t.Fatalf("after replacing X and Y: SolveHost = %v, %v; SolveVectors = %v, %v", got, err, want, wantErr)
	}
	m.Y = y1 // one side alone
	got, err = m.SolveHost(dout, din)
	want, wantErr = SolveVectors(x2, y1, dout, din)
	if !sameVectors(got, err, want, wantErr) {
		t.Fatalf("after replacing Y: SolveHost = %v, %v; SolveVectors = %v, %v", got, err, want, wantErr)
	}
}

// maxSolveHostAllocs bounds a SolveHost call on a model that has already
// placed a host. It reads 2, the two result vectors: the factors are
// applied in place, with no temporaries.
const maxSolveHostAllocs = 2

func TestSolveHostAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation accounting changes under -race")
	}
	x, y, dout, din := placementProblem(t, 1)
	m := &Model{X: x, Y: y}
	if _, err := m.SolveHost(dout, din); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.SolveHost(dout, din); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations per cached SolveHost: %.0f", allocs)
	if allocs > maxSolveHostAllocs {
		t.Fatalf("a cached SolveHost allocates %.0f times, want ≤ %d", allocs, maxSolveHostAllocs)
	}
}

// BenchmarkSolveHost times one host's placement on a 20 x 8 model: cold
// is a model's first placement, which decomposes Y and X; cached is every
// later one.
func BenchmarkSolveHost(b *testing.B) {
	x, y, dout, din := placementProblem(b, 1)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := (&Model{X: x, Y: y}).SolveHost(dout, din); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		m := &Model{X: x, Y: y}
		b.ReportAllocs()
		for range b.N {
			if _, err := m.SolveHost(dout, din); err != nil {
				b.Fatal(err)
			}
		}
	})
}
