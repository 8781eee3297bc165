package query

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/query/knnindex"
	"github.com/ides-go/ides/internal/telemetry"
)

// indexedDirectory builds a directory big enough to index (threshold
// lowered via KNNIndexMinSize) with n clustered hosts of dimension dim,
// and an engine with the index already built synchronously.
func indexedDirectory(t *testing.T, n, dim, minSize int) (*Directory, *Engine, []string) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)*31 + int64(dim)))
	dir := New(Config{KNNIndexMinSize: minSize})
	addrs := make([]string, n)
	centers := make([][]float64, 8)
	for i := range centers {
		c := make([]float64, dim)
		for d := range c {
			c[d] = rng.Float64() * 20
		}
		centers[i] = c
	}
	for i := range addrs {
		addrs[i] = fmt.Sprintf("host-%05d", i)
		c := centers[rng.Intn(len(centers))]
		out := make([]float64, dim)
		in := make([]float64, dim)
		for d := 0; d < dim; d++ {
			out[d] = c[d] + rng.NormFloat64()
			in[d] = c[d] + rng.NormFloat64()
		}
		dir.Put(addrs[i], core.Vectors{Out: out, In: in})
	}
	eng := NewEngine(dir, nil)
	if !eng.BuildKNNIndex() {
		t.Fatal("BuildKNNIndex did not install an index")
	}
	return dir, eng, addrs
}

func neighborsEqual(t *testing.T, ctxt string, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d", ctxt, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d: got %+v want %+v", ctxt, i, got[i], want[i])
		}
	}
}

// TestKNearestIndexMatchesExactScan is the engine-level recall gate: on
// a directory above the index threshold, KNearest must route through the
// index (asserted via knnIndexed) and return bitwise exactly what the
// exact scan does — recall 1.0, comfortably over the 0.95 gate.
func TestKNearestIndexMatchesExactScan(t *testing.T) {
	_, eng, addrs := indexedDirectory(t, 6000, 8, 64)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		src, _ := eng.Lookup(addrs[rng.Intn(len(addrs))])
		k := 1 + rng.Intn(40)
		fromIndex, ok := eng.knnIndexed(src.Out, k, "")
		if !ok {
			t.Fatalf("trial %d: index not used on an indexed directory", trial)
		}
		exact := eng.knnScan(src.Out, k, "")
		neighborsEqual(t, fmt.Sprintf("trial %d k=%d", trial, k), fromIndex, exact)
	}
}

func TestKNearestIndexEdgeCases(t *testing.T) {
	dir, eng, addrs := indexedDirectory(t, 500, 6, 16)
	src, _ := eng.Lookup(addrs[0])

	// k == 0: nothing, from either path.
	if got := eng.KNearest(src, 0, KNNOptions{}); got != nil {
		t.Fatalf("k=0: got %v", got)
	}
	// k > directory size: every other host, ascending.
	got := eng.KNearest(src, 10_000, KNNOptions{Exclude: addrs[0]})
	if len(got) != dir.Len()-1 {
		t.Fatalf("k>n: got %d results, want %d", len(got), dir.Len()-1)
	}
	for i := 1; i < len(got); i++ {
		if knnindex.Less(got[i], got[i-1]) {
			t.Fatalf("k>n: results out of order at %d", i)
		}
	}
	// Exclude of a non-member changes nothing.
	plain := eng.KNearest(src, 20, KNNOptions{})
	excl := eng.KNearest(src, 20, KNNOptions{Exclude: "never-registered"})
	neighborsEqual(t, "exclude non-member", excl, plain)
}

// TestKNearestDimMismatchedEntries registers entries of a second
// dimension mid-epoch: queries in the indexed dimension must keep index
// and scan agreeing (the odd-dimension entries are unrankable either
// way), and queries in the minority dimension must fall back to the
// exact scan and see exactly the matching entries.
func TestKNearestDimMismatchedEntries(t *testing.T) {
	dir, eng, addrs := indexedDirectory(t, 400, 6, 16)
	for i := 0; i < 10; i++ {
		v := make([]float64, 4)
		for d := range v {
			v[d] = float64(i + d)
		}
		dir.Put(fmt.Sprintf("odd-%02d", i), core.Vectors{Out: v, In: v})
	}
	src, _ := eng.Lookup(addrs[1])
	fromIndex, ok := eng.knnIndexed(src.Out, 15, "")
	if !ok {
		t.Fatal("10 mutations on 400 hosts should be within the staleness slack")
	}
	exact := eng.knnScan(src.Out, 15, "")
	neighborsEqual(t, "main dim", fromIndex, exact)

	oddSrc, _ := eng.Lookup("odd-00")
	if _, ok := eng.knnIndexed(oddSrc.Out, 5, ""); ok {
		t.Fatal("minority-dimension query must not be answered by the index")
	}
	got := eng.KNearest(oddSrc, 100, KNNOptions{Exclude: "odd-00"})
	if len(got) != 9 {
		t.Fatalf("minority dim: got %d results, want the other 9 odd hosts", len(got))
	}
}

// TestKNearestIndexChurn removes and re-registers hosts after the build:
// within the staleness slack the index must still be used, with dead
// hosts filtered by the liveness check — results identical to a fresh
// exact scan.
func TestKNearestIndexChurn(t *testing.T) {
	dir, eng, addrs := indexedDirectory(t, 1000, 6, 16)
	src, _ := eng.Lookup(addrs[7])
	before := eng.knnScan(src.Out, 10, "")
	// Remove the current best answers; they must vanish from results.
	dir.Remove(before[0].Addr)
	dir.Remove(before[1].Addr)
	fromIndex, ok := eng.knnIndexed(src.Out, 10, "")
	if !ok {
		t.Fatal("2 mutations should be within the staleness slack")
	}
	exact := eng.knnScan(src.Out, 10, "")
	neighborsEqual(t, "after churn", fromIndex, exact)
	for _, n := range fromIndex {
		if n.Addr == before[0].Addr || n.Addr == before[1].Addr {
			t.Fatalf("removed host %s still in results", n.Addr)
		}
	}
}

// TestKNearestIndexSeesHostsRegisteredSinceBuild registers a host after
// the build that beats every indexed one: the indexed answer must rank
// it first, as the scan does, while still answering from the index.
func TestKNearestIndexSeesHostsRegisteredSinceBuild(t *testing.T) {
	dir, eng, addrs := indexedDirectory(t, 1000, 6, 16)
	src, _ := eng.Lookup(addrs[0])
	zero := make([]float64, 6)
	dir.Put("host-new", core.Vectors{Out: zero, In: zero})
	got, ok := eng.knnIndexed(src.Out, 5, "")
	if !ok {
		t.Fatal("one registration should be within the staleness slack")
	}
	neighborsEqual(t, "after a registration", got, eng.knnScan(src.Out, 5, ""))
	if got[0].Addr != "host-new" {
		t.Fatalf("rank 0 is %+v, want the host registered since the build", got[0])
	}
}

// TestKNearestIndexRanksReRegisteredHostsByLiveVectors re-registers the
// nearest host far away in the same epoch: the index must not rank it
// by the vectors it was built from.
func TestKNearestIndexRanksReRegisteredHostsByLiveVectors(t *testing.T) {
	dir, eng, addrs := indexedDirectory(t, 1000, 6, 16)
	src, _ := eng.Lookup(addrs[0])
	best := eng.knnScan(src.Out, 1, "")[0]
	far := []float64{1e3, 1e3, 1e3, 1e3, 1e3, 1e3}
	dir.Put(best.Addr, core.Vectors{Out: far, In: far})
	got, ok := eng.knnIndexed(src.Out, 5, "")
	if !ok {
		t.Fatal("one re-registration should be within the staleness slack")
	}
	neighborsEqual(t, "after a re-registration", got, eng.knnScan(src.Out, 5, ""))
	for _, n := range got {
		if n.Addr == best.Addr {
			t.Fatalf("re-registered host %s served as %+v, by its indexed vectors", best.Addr, n)
		}
	}
}

// TestKNearestIndexStaleness drives churn past the slack: the index
// must stop answering (exact scan takes over) until a rebuild lands.
func TestKNearestIndexStaleness(t *testing.T) {
	dir, eng, addrs := indexedDirectory(t, 300, 4, 16)
	// 64 flat slack + len/8 = 37 → 150 mutations is well past stale.
	for i := 0; i < 150; i++ {
		v := []float64{float64(i), 1, 2, 3}
		dir.Put(fmt.Sprintf("new-%03d", i), core.Vectors{Out: v, In: v})
	}
	src, _ := eng.Lookup(addrs[0])
	if _, ok := eng.knnIndexed(src.Out, 5, ""); ok {
		t.Fatal("stale index still answering")
	}
	// A synchronous rebuild restores index service.
	if !eng.BuildKNNIndex() {
		t.Fatal("rebuild failed")
	}
	fromIndex, ok := eng.knnIndexed(src.Out, 5, "")
	if !ok {
		t.Fatal("rebuilt index not used")
	}
	exact := eng.knnScan(src.Out, 5, "")
	neighborsEqual(t, "after rebuild", fromIndex, exact)
}

// TestKNearestTinyDirectorySkipsIndex pins the deterministic-harness
// contract: below the threshold KNearest never consults or builds an
// index, even when asked.
func TestKNearestTinyDirectorySkipsIndex(t *testing.T) {
	dir := New(Config{}) // default threshold 4096
	for i := 0; i < 100; i++ {
		v := []float64{float64(i), 1}
		dir.Put(fmt.Sprintf("h-%03d", i), core.Vectors{Out: v, In: v})
	}
	eng := NewEngine(dir, nil)
	eng.RebuildKNNIndexAsync() // must be a no-op below threshold
	if eng.BuildKNNIndex() {
		t.Fatal("BuildKNNIndex installed an index below the threshold")
	}
	if dir.knn.Load() != nil {
		t.Fatal("tiny directory has an index")
	}
	src, _ := eng.Lookup("h-000")
	if _, ok := eng.knnIndexed(src.Out, 5, ""); ok {
		t.Fatal("tiny directory answered from an index")
	}
}

// TestKNNIndexDisabled pins the negative-threshold escape hatch.
func TestKNNIndexDisabled(t *testing.T) {
	dir := New(Config{KNNIndexMinSize: -1})
	for i := 0; i < 100; i++ {
		v := []float64{float64(i), 1}
		dir.Put(fmt.Sprintf("h-%03d", i), core.Vectors{Out: v, In: v})
	}
	eng := NewEngine(dir, nil)
	if eng.BuildKNNIndex() {
		t.Fatal("disabled index still built")
	}
	if _, ok := eng.knnIndexed([]float64{1, 1}, 5, ""); ok {
		t.Fatal("disabled index answered")
	}
}

// TestKNearestVerifiesAfterSearch drives both passes of the indexed
// search. The index is searched without a liveness check and its k
// results verified afterwards; only a dead result sends the search round
// again with the check inside. Every row must agree with the exact scan,
// and the recheck counter says which pass answered.
func TestKNearestVerifiesAfterSearch(t *testing.T) {
	const n, dim, k = 800, 6, 12
	rows := []struct {
		name string
		// kill makes victim — the nearest host to the query — unservable.
		kill        func(d *Directory, clock *atomic.Int64, victim string, vec core.Vectors)
		wantRecheck bool
	}{
		{"untouched", func(*Directory, *atomic.Int64, string, core.Vectors) {}, false},
		{"top-k member removed", func(d *Directory, _ *atomic.Int64, victim string, _ core.Vectors) {
			d.Remove(victim)
		}, true},
		{"top-k member expired", func(_ *Directory, clock *atomic.Int64, _ string, _ core.Vectors) {
			clock.Add(int64(45 * time.Minute)) // victim is 75 min old, the rest 45
		}, true},
		{"top-k member re-registered at a newer epoch", func(d *Directory, _ *atomic.Int64, victim string, vec core.Vectors) {
			d.PutEpoch(victim, vec, 2)
		}, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			var clock atomic.Int64
			clock.Store(time.Unix(1e6, 0).UnixNano())
			m := NewMetrics(telemetry.NewRegistry())
			d := New(Config{
				KNNIndexMinSize: 64,
				TTL:             time.Hour,
				Now:             func() time.Time { return time.Unix(0, clock.Load()) },
				Metrics:         m,
			})
			d.AdvanceEpoch(1)
			vecs := map[string]core.Vectors{}
			for i := 0; i < n; i++ {
				v := core.Vectors{Out: make([]float64, dim), In: make([]float64, dim)}
				for j := 0; j < dim; j++ {
					v.Out[j], v.In[j] = rng.Float64()*20, rng.Float64()*20
				}
				addr := fmt.Sprintf("host-%04d", i)
				vecs[addr] = v
				d.PutEpoch(addr, v, 1)
			}
			eng := NewEngine(d, nil)
			src, opts := vecs["host-0000"], KNNOptions{Exclude: "host-0000"}
			victim := eng.KNearestExact(src, k, opts)[0].Addr
			// Half an hour on, everyone but the victim refreshes; the index
			// is built over that state, victim included.
			clock.Add(int64(30 * time.Minute))
			for addr, v := range vecs {
				if addr != victim {
					d.PutEpoch(addr, v, 1)
				}
			}
			if !eng.BuildKNNIndex() {
				t.Fatal("BuildKNNIndex did not install an index")
			}

			row.kill(d, &clock, victim, vecs[victim])
			hits := m.KNNIndexHits.Value()
			got := eng.KNearest(src, k, opts)
			if m.KNNIndexHits.Value() != hits+1 {
				t.Fatal("KNearest did not answer from the index")
			}
			neighborsEqual(t, row.name, got, eng.KNearestExact(src, k, opts))
			if row.wantRecheck {
				for _, nb := range got {
					if nb.Addr == victim {
						t.Fatalf("dead host %s served", victim)
					}
				}
			}
			if rechecks := m.KNNIndexRechecks.Value(); (rechecks > 0) != row.wantRecheck {
				t.Fatalf("ides_query_knn_index_rechecks_total = %d, want recheck: %v", rechecks, row.wantRecheck)
			}
		})
	}
}
