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
// it an eighth of the indexed population may churn. Stale indexes are
// bypassed (exact scan) while a rebuild runs.
const knnStaleSlack = 64

// knnState is one built index, pinned like an Engine to the epoch its
// entries were collected under, plus the directory mutation count at
// build time for staleness bounds.
type knnState struct {
	epoch   uint64
	builtAt uint64
	idx     *knnindex.Index
}

// knnIndexed tries to answer KNearest from the directory's spatial
// index. ok=false sends the caller to the exact scan: the directory is
// tiny (or the index disabled), the index is missing/stale/mismatched —
// triggering an async rebuild — or the indexed snapshot could not fill
// k results that the live directory might.
func (e *Engine) knnIndexed(out []float64, k int, exclude string) ([]Neighbor, bool) {
	size := e.dir.approxSize()
	if e.dir.idxMin < 0 || size < e.dir.idxMin {
		return nil, false
	}
	m := e.dir.metrics
	st := e.dir.knn.Load()
	if st == nil || st.epoch != e.epoch || st.idx.Dim() != len(out) ||
		e.dir.mutations.Load()-st.builtAt > knnStaleSlack+uint64(st.idx.Len()/8) {
		e.RebuildKNNIndexAsync()
		if m != nil {
			m.KNNIndexFallbacks.Inc()
		}
		return nil, false
	}
	// Search first, verify after: the index's own top k are checked live
	// at the engine's epoch once the search is done — k lookups, not one
	// per candidate that ever entered the running top k. If all k are
	// live no live point can beat them, so the answer stands. Only when
	// one has expired, been removed or re-registered against a newer
	// model since the build does a second search run with the check
	// inside, which skips dead candidates as it goes. Exact either way.
	res := st.idx.Search(out, k, knnindex.SearchOptions{Exclude: exclude})
	if slices.ContainsFunc(res, func(r Neighbor) bool { return !e.live(r.Addr, len(out)) }) {
		if m != nil {
			m.KNNIndexRechecks.Inc()
		}
		res = st.idx.Search(out, k, knnindex.SearchOptions{
			Exclude: exclude,
			Accept:  func(addr string) bool { return e.live(addr, len(out)) },
		})
	}
	if len(res) < k && size > len(res) {
		// The snapshot came up short; the live directory may hold hosts
		// the index has never seen. Answer exactly.
		if m != nil {
			m.KNNIndexFallbacks.Inc()
		}
		return nil, false
	}
	if m != nil {
		m.KNNIndexHits.Inc()
	}
	return res, true
}

// live reports whether an indexed host still resolves at the engine's
// epoch with a vector of the indexed dimension — hosts that expired, were
// removed or re-registered against a newer model since the build must
// never be returned.
func (e *Engine) live(addr string, dim int) bool {
	v, ok := e.dir.GetAt(addr, e.epoch)
	return ok && len(v.In) == dim
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
	builtAt := e.dir.mutations.Load()
	now := e.dir.ttlNow()
	start := time.Now()
	buf := make([]addrVec, 0, e.dir.approxSize())
	for i := range e.dir.shards {
		buf = e.dir.snapshotShard(i, now, e.epoch, buf)
	}
	if len(buf) < e.dir.idxMin {
		// Shrunk below the threshold: drop any stale index and let the
		// scan serve.
		e.dir.knn.Store(nil)
		return false
	}
	// Pick the dominant vector dimension (ties to the smallest, so the
	// choice is deterministic even though map iteration is not).
	dimCount := make(map[int]int)
	for _, av := range buf {
		dimCount[len(av.vec.In)]++
	}
	dim, best := 0, 0
	for d, c := range dimCount {
		if c > best || (c == best && d < dim) {
			dim, best = d, c
		}
	}
	pts := make([]knnindex.Point, 0, len(buf))
	for _, av := range buf {
		pts = append(pts, knnindex.Point{Addr: av.addr, Vec: av.vec.In})
	}
	idx := knnindex.Build(pts, dim)
	if idx == nil {
		e.dir.knn.Store(nil)
		return false
	}
	e.dir.knn.Store(&knnState{epoch: e.epoch, builtAt: builtAt, idx: idx})
	if m := e.dir.metrics; m != nil {
		m.KNNIndexBuildSeconds.ObserveDuration(time.Since(start))
		m.KNNIndexNodes.Set(float64(idx.Nodes()))
		m.KNNIndexPoints.Set(float64(idx.Len()))
		m.KNNIndexBuilds.Inc()
	}
	return true
}
