package query

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/query/knnindex"
)

// Resolver resolves addresses the directory does not hold — typically
// landmarks, whose vectors live in the fitted model rather than the
// directory. It must be safe for concurrent use.
type Resolver func(addr string) (core.Vectors, bool)

// Engine answers bulk distance queries over a Directory. All methods are
// safe for concurrent use; scans hold one shard read-lock at a time, so
// queries never block registration globally (the only write lock a read
// path ever takes is a lookup's O(1) reclamation of a dead entry).
//
// An Engine is pinned to the model epoch current at construction:
// directory entries tagged with a different nonzero epoch are invisible
// to it. Together with a fallback resolver pinned to the same model
// generation (how the server builds engines), this guarantees no query
// through one Engine ever dots vectors from two different fits, even
// while a refit swaps generations and new registrations race in.
type Engine struct {
	dir      *Directory
	fallback Resolver
	epoch    uint64
}

// NewEngine builds an Engine over dir, pinned to dir's current model
// epoch. fallback may be nil.
func NewEngine(dir *Directory, fallback Resolver) *Engine {
	return &Engine{dir: dir, fallback: fallback, epoch: dir.Epoch()}
}

// Lookup resolves an address: directory first (at the engine's pinned
// epoch), then the fallback.
func (e *Engine) Lookup(addr string) (core.Vectors, bool) {
	if v, ok := e.dir.GetAt(addr, e.epoch); ok {
		return v, true
	}
	if e.fallback != nil {
		return e.fallback(addr)
	}
	return core.Vectors{}, false
}

// LookupBytes is Lookup keyed by raw address bytes. A directory hit —
// the steady-state case — does not allocate; only a miss that consults
// the fallback resolver (landmarks) pays for the string conversion.
func (e *Engine) LookupBytes(addr []byte) (core.Vectors, bool) {
	if v, ok := e.dir.GetAtBytes(addr, e.epoch); ok {
		return v, true
	}
	if e.fallback != nil {
		return e.fallback(string(addr))
	}
	return core.Vectors{}, false
}

// EstimatePair estimates the distance from→to for hosts named by raw
// address bytes: the zero-allocation point-query path behind the
// server's QueryDist handler. Unresolvable addresses — and pairs whose
// vector dimensions disagree, which the directory does not rule out (it
// stores whatever dimension PutEpoch is given) — report not found.
func (e *Engine) EstimatePair(from, to []byte) (float64, bool) {
	a, okA := e.LookupBytes(from)
	if !okA {
		return 0, false
	}
	b, okB := e.LookupBytes(to)
	if !okB || len(a.Out) != len(b.In) {
		return 0, false
	}
	return mat.Dot(a.Out, b.In), true
}

// Estimate is one answered distance in a batch.
type Estimate struct {
	// Millis is the estimated distance in milliseconds; meaningless when
	// Found is false.
	Millis float64
	// Found reports whether the target was resolvable.
	Found bool
}

// EstimateBatch estimates the distance from a single source to every
// target: one grouped directory lookup gathers the targets' incoming
// vectors by reference (no k x d copy, one read-lock per shard touched),
// then each estimate is one unrolled row·src.Out product through the
// fused estimate-row kernel (Eq. 4 batched). Unresolvable targets and
// targets whose vector dimension disagrees with the source are marked not
// found.
func (e *Engine) EstimateBatch(src core.Vectors, targets []string) []Estimate {
	var sc BatchScratch
	return estimateBatch(e, src, targets, &sc)
}

// EstimateBatchBytes is EstimateBatch over targets named by raw address
// bytes — views of a request frame — with its working memory and its
// result taken from sc: the server's allocation-free batch path. The
// result aliases sc and is valid until sc's next use; the targets are
// not retained.
func (e *Engine) EstimateBatchBytes(src core.Vectors, targets [][]byte, sc *BatchScratch) []Estimate {
	return estimateBatch(e, src, targets, sc)
}

// BatchScratch is the reusable working memory of one batch estimate. The
// zero value is ready to use; a caller that keeps one across calls (the
// server pools them) pays no allocation once it has grown to its batch
// size. Not safe for concurrent use.
type BatchScratch struct {
	ints []int32  // the grouped lookup's table position, order and pos arrays
	hash []uint64 // each target's address hash
	miss []int32  // indices the directory resolved nothing for
	rows [][]float64
	dist []float64
	out  []Estimate
}

// Release drops the references a finished batch left behind — rows alias
// directory slabs — so a pooled scratch pins nothing.
func (sc *BatchScratch) Release() { clear(sc.rows) }

// estimateBatch is the one batch core, shared by the string and the
// byte-view entry. Lookups are one pass and the dot products a second:
// fusing them under the shard lock measured slower, because the products'
// cache misses only overlap when nothing dependent sits between them.
func estimateBatch[K addrKey](e *Engine, src core.Vectors, targets []K, sc *BatchScratch) []Estimate {
	if m := e.dir.metrics; m != nil {
		start := time.Now()
		defer func() { m.BatchSeconds.ObserveDuration(time.Since(start)) }()
		m.BatchSize.Observe(float64(len(targets)))
	}
	n := len(targets)
	if cap(sc.rows) < n {
		sc.rows = make([][]float64, n)
		sc.dist = make([]float64, n)
		sc.out = make([]Estimate, n)
	}
	rows, dist, out := sc.rows[:n], sc.dist[:n], sc.out[:n]
	d := len(src.Out)
	// The fallback (landmarks) is consulted only for addresses the
	// directory resolved nothing for, after every shard lock is dropped,
	// and only then is a byte-view address copied into a string.
	if miss := gatherIn(e.dir, targets, e.epoch, d, rows, sc); e.fallback != nil {
		for _, i := range miss {
			if v, ok := e.fallback(string(targets[i])); ok && len(v.In) == d {
				rows[i] = v.In
			}
		}
	}
	clear(dist) // DotRowsInto leaves a nil row's slot alone
	mat.DotRowsInto(dist, rows, src.Out)
	for i, row := range rows {
		out[i] = Estimate{Millis: dist[i], Found: row != nil}
	}
	return out
}

// EstimateMatrix estimates all pairwise distances among addrs: the result
// is an n x n matrix D with D[i][j] the estimated distance from addrs[i]
// to addrs[j], computed as one X·Yᵀ product over the resolved outgoing
// and incoming vectors. found[i] reports whether addrs[i] resolved; rows
// and columns of unresolved addresses are NaN.
func (e *Engine) EstimateMatrix(addrs []string) (*mat.Dense, []bool) {
	if m := e.dir.metrics; m != nil {
		m.MatrixSize.Observe(float64(len(addrs)))
	}
	n := len(addrs)
	found := make([]bool, n)
	if n == 0 {
		return mat.NewDense(0, 0), found
	}
	// Resolve everything first so the vector dimension is known.
	vecs := make([]core.Vectors, n)
	d := -1
	for i, addr := range addrs {
		v, ok := e.Lookup(addr)
		if !ok {
			continue
		}
		if d < 0 {
			d = len(v.Out)
		}
		if len(v.Out) != d || len(v.In) != d {
			continue
		}
		vecs[i], found[i] = v, true
	}
	if d < 0 {
		d = 0
	}
	x := mat.NewDense(n, d)
	y := mat.NewDense(n, d)
	for i := range addrs {
		if found[i] {
			x.SetRow(i, vecs[i].Out)
			y.SetRow(i, vecs[i].In)
		}
	}
	dm := mat.MulABT(x, y)
	for i := range addrs {
		if found[i] {
			continue
		}
		for j := 0; j < n; j++ {
			dm.Set(i, j, math.NaN())
			dm.Set(j, i, math.NaN())
		}
	}
	return dm, found
}

// Neighbor is one k-nearest result, the spatial index's own type.
type Neighbor = knnindex.Neighbor

// KNNOptions tunes KNearest.
type KNNOptions struct {
	// Exclude names an address to omit from the results (typically the
	// querying host itself, which is trivially at distance ~0).
	Exclude string
}

// KNearest returns the k registered hosts with the smallest estimated
// distance from a source with vectors src, ascending, ties broken by
// address (knnindex.Less). Selection is a partial sort: the directory's
// shards are scanned in parallel, each worker into its own
// knnindex.TopK of size k, and the workers' winners are offered into one
// — O(n log k) work, never a full sort of the directory. If the
// directory holds fewer than k live hosts, all of them are returned.
func (e *Engine) KNearest(src core.Vectors, k int, opts KNNOptions) []Neighbor {
	if k <= 0 {
		return nil
	}
	if m := e.dir.metrics; m != nil {
		start := time.Now()
		defer func() { m.KNNSeconds.ObserveDuration(time.Since(start)) }()
	}
	// Large directories answer from the epoch's spatial index, plus a scan
	// of the hosts registered since its build: exact, so either path
	// returns the identical slice. Tiny directories — and queries that
	// catch the index missing or stale — take the scan.
	if res, ok := e.knnIndexed(src.Out, k, opts.Exclude); ok {
		return res
	}
	return e.knnScan(src.Out, k, opts.Exclude)
}

// KNearestExact answers KNearest by exhaustive scan, never consulting
// the spatial index — the reference the index is validated against and
// the baseline the k-NN scaling benchmark compares to. Both paths are
// exact, so on a quiescent directory the results are identical; this
// entry point only pins WHICH algorithm runs.
func (e *Engine) KNearestExact(src core.Vectors, k int, opts KNNOptions) []Neighbor {
	if k <= 0 {
		return nil
	}
	return e.knnScan(src.Out, k, opts.Exclude)
}

// knnScan is the parallel top-k scan, scoring out against each host's
// incoming vector through the same unrolled kernel as every other
// estimate site, so scan, index, and point paths agree bitwise. Hosts
// whose vector dimension differs from the source's are skipped entirely,
// mirroring EstimateBatch's not-found handling.
func (e *Engine) knnScan(out []float64, k int, exclude string) []Neighbor {
	numShards := len(e.dir.shards)
	workers := min(runtime.GOMAXPROCS(0), numShards)
	// A serial scan avoids goroutine overhead for small directories.
	// approxSize never locks or sweeps, so this sizing decision cannot
	// stall concurrent registration.
	if workers <= 1 || e.dir.approxSize() < defaultKNNIndexMinSize {
		workers = 1
	}
	now := e.dir.ttlNow()
	tops := make([]knnindex.TopK, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range tops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tops[w] = knnindex.NewTopK(k)
			for i := int(next.Add(1)) - 1; i < numShards; i = int(next.Add(1)) - 1 {
				e.offerShard(&tops[w], i, nil, now, out, exclude)
			}
		}()
	}
	wg.Wait()
	// A directory holds each address once, so whichever worker held a
	// host, the k least of the union are the same.
	for _, t := range tops[1:] {
		for _, n := range t.Sorted() {
			tops[0].Offer(n)
		}
	}
	return tops[0].Sorted()
}

// offerShard offers into top, through visit, each host of out's dimension
// in shard i, copying out only the addresses whose distance could enter.
func (e *Engine) offerShard(top *knnindex.TopK, i int, st *knnState, now int64, out []float64, exclude string) int {
	return e.dir.visit(i, st, now, e.epoch, func(slab []float64, r record) {
		if r.nIn() != len(out) {
			return
		}
		ms := mat.Dot(out, r.inRow(slab))
		if ms <= top.Bound() && !hasAddr(slab, r.s, exclude) {
			top.Offer(Neighbor{Addr: r.addrOf(slab), Millis: ms})
		}
	})
}
