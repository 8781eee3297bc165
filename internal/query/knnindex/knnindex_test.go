package knnindex

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/ides-go/ides/internal/mat"
)

// clusteredPoints generates n points in dim dimensions around a handful
// of cluster centers — the structure real coordinate sets have, and the
// case the KD-tree's bounding boxes exploit.
func clusteredPoints(rng *rand.Rand, n, dim int) []Point {
	centers := make([][]float64, 16)
	for i := range centers {
		c := make([]float64, dim)
		for d := range c {
			c[d] = rng.Float64() * 50
		}
		centers[i] = c
	}
	pts := make([]Point, n)
	for i := range pts {
		c := centers[rng.Intn(len(centers))]
		v := make([]float64, dim)
		for d := range v {
			v[d] = c[d] + rng.NormFloat64()*2
		}
		pts[i] = Point{Addr: fmt.Sprintf("host-%05d", i), Vec: v}
	}
	return pts
}

// bruteForce is the reference: score every point with the same kernel,
// sort by (score, addr), take k.
func bruteForce(pts []Point, q []float64, k int, exclude string, accept func(string) bool) []Neighbor {
	var all []Neighbor
	for _, p := range pts {
		if p.Addr == exclude {
			continue
		}
		if accept != nil && !accept(p.Addr) {
			continue
		}
		s := mat.Dot(q, p.Vec)
		if math.IsNaN(s) {
			continue
		}
		all = append(all, Neighbor{Addr: p.Addr, Millis: s})
	}
	sort.Slice(all, func(i, j int) bool { return Less(all[i], all[j]) })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// FuzzTopKMatchesSort: whatever neighbors are offered, in whatever
// order, a TopK keeps exactly what sorting the NaN-free offers by Less
// and cutting the list to k keeps. Each 9 bytes of input are one offer:
// a one-byte address and a float64 distance.
func FuzzTopKMatchesSort(f *testing.F) {
	enc := func(ns ...Neighbor) []byte {
		var b []byte
		for _, n := range ns {
			b = append(b, n.Addr[0])
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(n.Millis))
		}
		return b
	}
	nb := func(addr string, ms float64) Neighbor { return Neighbor{Addr: addr, Millis: ms} }
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(3, enc(nb("a", 5), nb("b", 1), nb("c", 3), nb("d", 2)))
	f.Add(2, enc(nb("a", nan), nb("b", 1), nb("c", nan), nb("d", 0)))
	f.Add(3, enc(nb("a", inf), nb("b", -inf), nb("c", 0), nb("d", inf), nb("e", -inf)))
	f.Add(2, enc(nb("c", 2), nb("a", 2), nb("b", 2), nb("d", 1)))               // ties
	f.Add(3, enc(nb("a", 4), nb("a", 1), nb("a", 4), nb("b", 1), nb("a", nan))) // repeated addresses
	f.Add(0, enc(nb("a", 1), nb("b", 2)))
	f.Add(10, enc(nb("a", 1), nb("b", 2), nb("c", math.Copysign(0, -1))))
	f.Fuzz(func(t *testing.T, k int, data []byte) {
		top := NewTopK(k)
		var want []Neighbor
		for ; len(data) >= 9; data = data[9:] {
			n := Neighbor{Addr: string(data[:1]), Millis: math.Float64frombits(binary.LittleEndian.Uint64(data[1:9]))}
			top.Offer(n)
			if !math.IsNaN(n.Millis) {
				want = append(want, n)
			}
		}
		sort.Slice(want, func(i, j int) bool { return Less(want[i], want[j]) })
		want = want[:min(max(k, 0), len(want))]
		if got := top.Sorted(); !slices.Equal(got, want) {
			t.Fatalf("k=%d: TopK kept %v, sort-and-truncate %v", k, got, want)
		}
	})
}

func clonePoints(pts []Point) []Point {
	out := make([]Point, len(pts))
	copy(out, pts)
	return out
}

func TestSearchMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const dim = 8
	pts := clusteredPoints(rng, 5000, dim)
	// Exact duplicates force score ties that only the address tie-break
	// resolves — the case sloppy pruning would get wrong.
	for i := 0; i < 50; i++ {
		src := pts[rng.Intn(len(pts))]
		pts = append(pts, Point{Addr: fmt.Sprintf("dup-%03d", i), Vec: src.Vec})
	}
	ref := clonePoints(pts)
	ix := Build(pts, dim)
	if ix == nil {
		t.Fatal("Build returned nil")
	}
	for trial := 0; trial < 200; trial++ {
		q := ref[rng.Intn(len(ref))].Vec
		k := 1 + rng.Intn(64)
		got := ix.Search(q, k, SearchOptions{})
		want := bruteForce(ref, q, k, "", nil)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d k=%d: result %d: got %+v want %+v", trial, k, i, got[i], want[i])
			}
		}
	}
}

// TestRecallGate is the acceptance gate stated directly: recall of the
// indexed search against the exact scan must be at least 0.95. The
// branch-and-bound is exact, so it should be 1.0 — the slack is for the
// gate's wording, not the implementation.
func TestRecallGate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const dim, k = 8, 16
	pts := clusteredPoints(rng, 20000, dim)
	ref := clonePoints(pts)
	ix := Build(pts, dim)
	hits, total := 0, 0
	for trial := 0; trial < 100; trial++ {
		q := ref[rng.Intn(len(ref))].Vec
		want := bruteForce(ref, q, k, "", nil)
		got := ix.Search(q, k, SearchOptions{})
		inExact := make(map[string]bool, len(want))
		for _, n := range want {
			inExact[n.Addr] = true
		}
		for _, n := range got {
			if inExact[n.Addr] {
				hits++
			}
		}
		total += len(want)
	}
	recall := float64(hits) / float64(total)
	if recall < 0.95 {
		t.Fatalf("recall %.4f < 0.95", recall)
	}
	if recall != 1.0 {
		t.Errorf("recall %.4f != 1.0: branch-and-bound should be exact", recall)
	}
}

func TestSearchIsSublinearInPointsScored(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const dim, k = 8, 16
	pts := clusteredPoints(rng, 50000, dim)
	ref := clonePoints(pts)
	ix := Build(pts, dim)
	var scored int
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		var st SearchStats
		ix.Search(ref[rng.Intn(len(ref))].Vec, k, SearchOptions{Stats: &st})
		scored += st.Scored
	}
	frac := float64(scored) / float64(trials*ix.Len())
	if frac > 0.5 {
		t.Fatalf("index scored %.1f%% of points per query on clustered data; pruning is not working", frac*100)
	}
	t.Logf("visited fraction: %.2f%%", frac*100)
}

func TestBuildFiltersBadVectors(t *testing.T) {
	pts := []Point{
		{Addr: "good-1", Vec: []float64{1, 2}},
		{Addr: "short", Vec: []float64{1}},
		{Addr: "nan", Vec: []float64{math.NaN(), 0}},
		{Addr: "inf", Vec: []float64{math.Inf(1), 0}},
		{Addr: "good-2", Vec: []float64{3, 4}},
	}
	ix := Build(pts, 2)
	if ix.Len() != 2 {
		t.Fatalf("indexed %d points, want 2", ix.Len())
	}
	got := ix.Search([]float64{1, 1}, 10, SearchOptions{})
	if len(got) != 2 || got[0].Addr != "good-1" || got[1].Addr != "good-2" {
		t.Fatalf("Search = %+v", got)
	}
}

func TestSearchEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := clusteredPoints(rng, 100, 4)
	ref := clonePoints(pts)
	ix := Build(pts, 4)
	q := ref[0].Vec

	if got := ix.Search(q, 0, SearchOptions{}); got != nil {
		t.Fatalf("k=0: got %v, want nil", got)
	}
	if got := ix.Search(q, 1000, SearchOptions{}); len(got) != 100 {
		t.Fatalf("k>n: got %d results, want all 100", len(got))
	}
	if got := ix.Search([]float64{1, 2, 3}, 5, SearchOptions{}); got != nil {
		t.Fatalf("dim mismatch: got %v, want nil", got)
	}
	var nilIx *Index
	if got := nilIx.Search(q, 5, SearchOptions{}); got != nil {
		t.Fatalf("nil index: got %v, want nil", got)
	}
	// Excluding a non-member changes nothing.
	plain := ix.Search(q, 10, SearchOptions{})
	excl := ix.Search(q, 10, SearchOptions{Exclude: "not-registered"})
	for i := range plain {
		if plain[i] != excl[i] {
			t.Fatalf("exclude of non-member changed results at %d", i)
		}
	}
	// Excluding a member removes exactly it.
	victim := plain[0].Addr
	got := ix.Search(q, 10, SearchOptions{Exclude: victim})
	want := bruteForce(ref, q, 10, victim, nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("exclude member: result %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestSearchAccept(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := clusteredPoints(rng, 2000, 4)
	ref := clonePoints(pts)
	ix := Build(pts, 4)
	dead := func(addr string) bool { return addr[len(addr)-1] != '7' } // drop ~10%
	for trial := 0; trial < 20; trial++ {
		q := ref[rng.Intn(len(ref))].Vec
		got := ix.Search(q, 12, SearchOptions{Accept: dead})
		want := bruteForce(ref, q, 12, "", dead)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d result %d: got %+v want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestBuildCopiesItsInput pins the ownership contract: Build neither
// reorders the caller's points nor writes through their vectors, and the
// index it returns shares no memory with them — so what the caller does
// to them afterwards cannot change a search.
func TestBuildCopiesItsInput(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const dim = 5
	pts := clusteredPoints(rng, 3000, dim)
	before := make([]Point, len(pts))
	for i, p := range pts {
		before[i] = Point{Addr: p.Addr, Vec: append([]float64(nil), p.Vec...)}
	}
	ix := Build(pts, dim)
	for i, p := range pts {
		if p.Addr != before[i].Addr || !slices.Equal(p.Vec, before[i].Vec) {
			t.Fatalf("Build changed the caller's point %d: %+v, was %+v", i, p, before[i])
		}
	}
	q := before[7].Vec
	want := ix.Search(q, 20, SearchOptions{})
	for i := range pts {
		for d := range pts[i].Vec {
			pts[i].Vec[d] = -1e9
		}
		pts[i] = Point{Addr: "overwritten"}
	}
	got := ix.Search(q, 20, SearchOptions{})
	if !slices.Equal(got, want) || !slices.Equal(want, bruteForce(before, q, 20, "", nil)) {
		t.Fatalf("Search changed after the caller's points were overwritten:\n got %+v\nwant %+v", got, want)
	}
}
