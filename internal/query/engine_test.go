package query

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/mat"
)

// hostAt registers addr with In = (x, y) so the estimate from a source
// with Out = (1, 0) is exactly x.
func hostAt(d *Directory, addr string, x, y float64) {
	d.Put(addr, core.Vectors{Out: []float64{x, y}, In: []float64{x, y}})
}

func TestEstimateBatch(t *testing.T) {
	d := New(Config{})
	hostAt(d, "a", 3, 0)
	hostAt(d, "b", 7, 1)
	e := NewEngine(d, nil)
	src := core.Vectors{Out: []float64{1, 0}, In: []float64{1, 0}}
	got := e.EstimateBatch(src, []string{"a", "ghost", "b", "a"})
	want := []Estimate{{3, true}, {0, false}, {7, true}, {3, true}}
	if len(got) != len(want) {
		t.Fatalf("got %d results", len(got))
	}
	for i := range want {
		if got[i].Found != want[i].Found || math.Abs(got[i].Millis-want[i].Millis) > 1e-12 {
			t.Errorf("[%d] = %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestEstimateBatchEmptyAndAllMissing(t *testing.T) {
	e := NewEngine(New(Config{}), nil)
	src := core.Vectors{Out: []float64{1}, In: []float64{1}}
	if got := e.EstimateBatch(src, nil); len(got) != 0 {
		t.Fatalf("empty targets: %v", got)
	}
	got := e.EstimateBatch(src, []string{"x", "y"})
	for i, r := range got {
		if r.Found {
			t.Errorf("[%d] found in empty directory", i)
		}
	}
}

func TestEstimateBatchDimMismatch(t *testing.T) {
	d := New(Config{})
	d.Put("short", core.Vectors{Out: []float64{1}, In: []float64{1}})
	e := NewEngine(d, nil)
	src := core.Vectors{Out: []float64{1, 0}, In: []float64{1, 0}}
	if got := e.EstimateBatch(src, []string{"short"}); got[0].Found {
		t.Fatal("dimension mismatch must read as not found")
	}
}

func TestEstimateBatchFallback(t *testing.T) {
	d := New(Config{})
	hostAt(d, "a", 2, 0)
	lm := map[string]core.Vectors{"L1": {Out: []float64{5, 0}, In: []float64{5, 0}}}
	e := NewEngine(d, func(addr string) (core.Vectors, bool) {
		v, ok := lm[addr]
		return v, ok
	})
	src := core.Vectors{Out: []float64{1, 0}, In: []float64{1, 0}}
	got := e.EstimateBatch(src, []string{"a", "L1"})
	if !got[0].Found || !got[1].Found || got[1].Millis != 5 {
		t.Fatalf("fallback resolution failed: %+v", got)
	}
}

func TestEstimateMatrix(t *testing.T) {
	d := New(Config{})
	// Asymmetric vectors: est(i→j) = Out_i · In_j.
	d.Put("a", core.Vectors{Out: []float64{1, 0}, In: []float64{0, 2}})
	d.Put("b", core.Vectors{Out: []float64{0, 3}, In: []float64{4, 0}})
	e := NewEngine(d, nil)
	dm, found := e.EstimateMatrix([]string{"a", "b", "ghost"})
	if !found[0] || !found[1] || found[2] {
		t.Fatalf("found = %v", found)
	}
	if dm.At(0, 1) != 4 { // Out_a · In_b = 1*4
		t.Errorf("a→b = %v want 4", dm.At(0, 1))
	}
	if dm.At(1, 0) != 6 { // Out_b · In_a = 3*2
		t.Errorf("b→a = %v want 6", dm.At(1, 0))
	}
	if !math.IsNaN(dm.At(2, 0)) || !math.IsNaN(dm.At(0, 2)) {
		t.Error("unresolved row/col must be NaN")
	}
}

func TestKNearestTable(t *testing.T) {
	build := func(xs ...float64) *Engine {
		d := New(Config{Shards: 4})
		for i, x := range xs {
			hostAt(d, fmt.Sprintf("h%d", i), x, 0)
		}
		return NewEngine(d, nil)
	}
	src := core.Vectors{Out: []float64{1, 0}, In: []float64{1, 0}}
	cases := []struct {
		name string
		eng  *Engine
		k    int
		opts KNNOptions
		want []Neighbor
	}{
		{"empty directory", build(), 3, KNNOptions{}, []Neighbor{}},
		{"k zero", build(5, 1), 0, KNNOptions{}, []Neighbor{}},
		{"k negative", build(5, 1), -2, KNNOptions{}, []Neighbor{}},
		{"basic order", build(5, 1, 3), 2, KNNOptions{},
			[]Neighbor{{Addr: "h1", Millis: 1}, {Addr: "h2", Millis: 3}}},
		{"k greater than n", build(5, 1), 10, KNNOptions{},
			[]Neighbor{{Addr: "h1", Millis: 1}, {Addr: "h0", Millis: 5}}},
		{"ties broken by address", build(2, 2, 2, 1), 3, KNNOptions{},
			[]Neighbor{{Addr: "h3", Millis: 1}, {Addr: "h0", Millis: 2}, {Addr: "h1", Millis: 2}}},
		{"exclude source", build(0, 4, 2), 2, KNNOptions{Exclude: "h0"},
			[]Neighbor{{Addr: "h2", Millis: 2}, {Addr: "h1", Millis: 4}}},
		{"k equals n", build(9, 8, 7), 3, KNNOptions{},
			[]Neighbor{{Addr: "h2", Millis: 7}, {Addr: "h1", Millis: 8}, {Addr: "h0", Millis: 9}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.eng.KNearest(src, tc.k, tc.opts)
			if len(got) != len(tc.want) {
				t.Fatalf("got %v want %v", got, tc.want)
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Fatalf("got %v want %v", got, tc.want)
				}
			}
		})
	}
}

func TestKNearestSkipsDimMismatch(t *testing.T) {
	d := New(Config{Shards: 2})
	hostAt(d, "ok", 5, 0)
	// Both shorter and longer vectors than the source's dimension must be
	// skipped, not scored with a truncated dot product.
	d.Put("short", core.Vectors{Out: []float64{1}, In: []float64{1}})
	d.Put("long", core.Vectors{Out: []float64{1, 1, 1}, In: []float64{1, 1, 1}})
	e := NewEngine(d, nil)
	src := core.Vectors{Out: []float64{1, 0}, In: []float64{1, 0}}
	got := e.KNearest(src, 10, KNNOptions{})
	if len(got) != 1 || got[0].Addr != "ok" {
		t.Fatalf("mismatched-dimension hosts must be skipped, got %v", got)
	}
}

// TestKNearestMatchesFullSort cross-checks the partial-heap selection
// against a brute-force full sort on a larger random directory.
func TestKNearestMatchesFullSort(t *testing.T) {
	d := New(Config{Shards: 8})
	const n, dim = 5000, 10
	rng := newRand(99)
	src := core.Vectors{Out: randVec(rng, dim), In: randVec(rng, dim)}
	type pair struct {
		addr string
		est  float64
	}
	all := make([]pair, 0, n)
	for i := 0; i < n; i++ {
		v := core.Vectors{Out: randVec(rng, dim), In: randVec(rng, dim)}
		addr := fmt.Sprintf("host-%04d", i)
		d.Put(addr, v)
		all = append(all, pair{addr, mat.Dot(src.Out, v.In)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].est != all[j].est {
			return all[i].est < all[j].est
		}
		return all[i].addr < all[j].addr
	})
	e := NewEngine(d, nil)
	for _, k := range []int{1, 7, 100} {
		got := e.KNearest(src, k, KNNOptions{})
		if len(got) != k {
			t.Fatalf("k=%d: got %d results", k, len(got))
		}
		for i := 0; i < k; i++ {
			if got[i].Addr != all[i].addr || math.Abs(got[i].Millis-all[i].est) > 1e-9 {
				t.Fatalf("k=%d rank %d: got %+v want %+v", k, i, got[i], all[i])
			}
		}
	}
}

// ---- helpers ----

type xorshift struct{ s uint64 }

func newRand(seed uint64) *xorshift { return &xorshift{s: seed*2685821657736338717 + 1} }

func (r *xorshift) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *xorshift) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func randVec(r *xorshift, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.float() * 10
	}
	return v
}

// TestEnginePinnedEpoch: an Engine resolves only entries of the epoch
// current at its construction, so a handler
// holding a pre-refit engine can never mix generations even while
// registrations for the new epoch race in.
func TestEnginePinnedEpoch(t *testing.T) {
	d := New(Config{})
	d.AdvanceEpoch(1)
	old := NewEngine(d, nil)
	d.Put("legacy", core.Vectors{Out: []float64{1, 1}, In: []float64{1, 1}})
	d.PutEpoch("gen1", core.Vectors{Out: []float64{2, 2}, In: []float64{2, 2}}, 1)

	d.AdvanceEpoch(2)
	fresh := NewEngine(d, nil)
	d.PutEpoch("gen2", core.Vectors{Out: []float64{3, 3}, In: []float64{3, 3}}, 2)

	if _, ok := old.Lookup("gen2"); ok {
		t.Fatal("pre-refit engine must not resolve a newer-epoch entry")
	}
	if _, ok := old.Lookup("legacy"); ok {
		t.Fatal("an epoch-0 entry must not resolve once a model is fit")
	}
	if _, ok := fresh.Lookup("gen1"); ok {
		t.Fatal("dead-generation entry must not resolve")
	}
	if _, ok := fresh.Lookup("gen2"); !ok {
		t.Fatal("current-epoch entry must resolve")
	}
	src := core.Vectors{Out: []float64{1, 0}, In: []float64{1, 0}}
	for _, n := range fresh.KNearest(src, 10, KNNOptions{}) {
		if n.Addr == "gen1" {
			t.Fatal("scan through fresh engine surfaced a dead entry")
		}
	}
	for _, n := range old.KNearest(src, 10, KNNOptions{}) {
		if n.Addr == "gen2" {
			t.Fatal("scan through pre-refit engine surfaced a newer entry")
		}
	}
	ests := fresh.EstimateBatch(src, []string{"legacy", "gen1", "gen2"})
	if ests[0].Found || ests[1].Found || !ests[2].Found {
		t.Fatalf("batch resolution across epochs wrong: %+v", ests)
	}
}
