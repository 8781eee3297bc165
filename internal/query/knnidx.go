package query

import (
	"slices"
	"time"

	"github.com/ides-go/ides/internal/query/knnindex"
)

// defaultKNNIndexMinSize is the directory size below which KNearest
// always scans exactly. It matches knnScan's serial-scan threshold: a
// directory small enough to scan on one core is small enough that tree
// traversal overhead beats the multiplies saved.
const defaultKNNIndexMinSize = 4096

// knnStaleSlack is the flat number of directory mutations tolerated
// since an index build before the index is considered stale; on top of
// it an eighth of the indexed population may churn. It bounds the scan
// of the records appended since the build: past it the exact scan
// answers while a rebuild runs.
const knnStaleSlack = 64

// knnState is one built index, pinned like an Engine to the epoch its
// entries were collected under. It covers each shard's slab up to
// prefix[shard], as long as compactions has not moved since.
type knnState struct {
	epoch       uint64
	builtAt     uint64
	compactions uint64
	prefix      []int
	idx         *knnindex.Index
}

// knnIndexed tries to answer KNearest from the directory's spatial
// index. ok=false sends the caller to the exact scan: the directory is
// tiny (or the index disabled), or the index is missing, stale or
// mismatched — triggering an async rebuild.
func (e *Engine) knnIndexed(out []float64, k int, exclude string) ([]Neighbor, bool) {
	d := e.dir
	if d.idxMin < 0 || d.approxSize() < d.idxMin {
		return nil, false
	}
	m := d.metrics
	fallback := func() ([]Neighbor, bool) {
		e.RebuildKNNIndexAsync()
		if m != nil {
			m.KNNIndexFallbacks.Inc()
		}
		return nil, false
	}
	st := d.knn.Load()
	if st == nil || st.epoch != e.epoch || st.idx.Dim() != len(out) || st.compactions != d.compactions.Load() ||
		d.mutations.Load()-st.builtAt > knnStaleSlack+uint64(st.idx.Len()/8) {
		return fallback()
	}
	// Search first, verify after: the index's own top k are checked once
	// the search is done — k lookups, not one per candidate that ever
	// entered the running top k. If all k are still the records indexed,
	// no other indexed host can beat them; otherwise a second search runs
	// with the check inside, skipping dead candidates as it goes.
	res := st.idx.Search(out, k, knnindex.SearchOptions{Exclude: exclude})
	if slices.ContainsFunc(res, func(r Neighbor) bool { return !e.indexed(st, r.Addr) }) {
		if m != nil {
			m.KNNIndexRechecks.Inc()
		}
		res = st.idx.Search(out, k, knnindex.SearchOptions{
			Exclude: exclude,
			Accept:  func(addr string) bool { return e.indexed(st, addr) },
		})
	}
	// Every other live host — (re-)registered since the build — sits past
	// its shard's prefix: scanning those into the same top k is exact.
	if d.mutations.Load() != st.builtAt {
		top := knnindex.NewTopK(k)
		for _, n := range res {
			top.Offer(n)
		}
		now := d.ttlNow()
		for i := range d.shards {
			if e.offerShard(&top, i, st, now, out, exclude) < 0 {
				break
			}
		}
		res = top.Sorted()
	}
	if st.compactions != d.compactions.Load() {
		return fallback() // a slab moved under the slot checks above
	}
	if m != nil {
		m.KNNIndexHits.Inc()
	}
	return res, true
}

// indexed reports whether addr's live record is the one st indexed:
// records never revive and re-registrations are appended, so exactly
// when it lies in its shard's built prefix, unexpired and not stale.
func (e *Engine) indexed(st *knnState, addr string) bool {
	d := e.dir
	h := hashOf(d, addr)
	sh := &d.shards[h&d.mask]
	now, cur := d.ttlNow(), d.epoch.Load()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	p := find(sh, h, addr)
	return p >= 0 && sh.slotAt(p) < st.prefix[h&d.mask] && !d.dead(sh.slab, rec(sh.slab, sh.slotAt(p)), now, cur)
}

// RebuildKNNIndexAsync kicks off a background index build for the
// engine's epoch unless one is already running. The server calls it on
// every full-fit snapshot swap (the lifecycle OnSwap path); KNearest
// calls it when it finds the index missing or stale, so the serving path
// self-heals under churn. No goroutine is spawned for directories under
// the index threshold.
func (e *Engine) RebuildKNNIndexAsync() {
	if e.dir.idxMin < 0 || e.dir.approxSize() < e.dir.idxMin {
		return
	}
	if !e.dir.knnBuilding.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer e.dir.knnBuilding.Store(false)
		e.BuildKNNIndex()
	}()
}

// BuildKNNIndex synchronously builds the spatial index over the
// directory's live entries as seen from the engine's epoch and installs
// it for every engine of that epoch (the index lives on the Directory,
// which outlives per-revision engine swaps). Mixed-dimension directories
// index the most common dimension; queries in any other fall back to the
// exact scan. Reports whether an index was installed.
func (e *Engine) BuildKNNIndex() bool {
	if e.dir.idxMin < 0 {
		return false
	}
	d := e.dir
	// The index starts from compact slabs, so no compaction is due before
	// as many records die as are live — far past the staleness bound.
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		if sh.dead > 0 {
			d.compact(sh)
		}
		sh.mu.Unlock()
	}
	st := &knnState{epoch: e.epoch, builtAt: d.mutations.Load(), compactions: d.compactions.Load(), prefix: make([]int, len(d.shards))}
	now := d.ttlNow()
	start := time.Now()
	pts := make([]knnindex.Point, 0, d.approxSize())
	for i := range d.shards {
		st.prefix[i] = d.visit(i, nil, now, e.epoch, func(slab []float64, r record) {
			pts = append(pts, knnindex.Point{Addr: r.addrOf(slab), Vec: r.inRow(slab)})
		})
	}
	if len(pts) < d.idxMin {
		// Shrunk below the threshold: drop any stale index and let the
		// scan serve.
		d.knn.Store(nil)
		return false
	}
	// Pick the dominant vector dimension (ties to the smallest, so the
	// choice does not depend on the order hosts were visited in).
	dimCount := make(map[int]int)
	for _, p := range pts {
		dimCount[len(p.Vec)]++
	}
	dim, best := 0, 0
	for n, c := range dimCount {
		if c > best || (c == best && n < dim) {
			dim, best = n, c
		}
	}
	if st.idx = knnindex.Build(pts, dim); st.idx == nil {
		d.knn.Store(nil)
		return false
	}
	d.knn.Store(st)
	if m, idx := d.metrics, st.idx; m != nil {
		m.KNNIndexBuildSeconds.ObserveDuration(time.Since(start))
		m.KNNIndexNodes.Set(float64(idx.Nodes()))
		m.KNNIndexPoints.Set(float64(idx.Len()))
		m.KNNIndexBuilds.Inc()
	}
	return true
}
