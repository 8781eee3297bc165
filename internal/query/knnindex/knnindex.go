// Package knnindex is a spatial index over host coordinate vectors for
// sublinear k-nearest-neighbor queries.
//
// The IDES estimate for the distance src→host is the inner product
// src.Out · host.In (Eq. 4), so "k nearest to src" means the k hosts
// whose In-vectors minimize that product. Inner product is not a metric —
// there is no triangle inequality to lean on — but an exact
// branch-and-bound over a KD-tree still works: for an axis-aligned box
// [lo, hi] enclosing a subtree's points, the product q·x for any x in the
// box is at least
//
//	LB(box) = Σ_d min(q_d·lo_d, q_d·hi_d)
//
// (each coordinate independently picks whichever box corner minimizes its
// term). Any subtree whose lower bound already exceeds the current k-th
// best score cannot improve the result and is skipped. Pruning never
// rejects a point that could tie-break its way into the result — subtrees
// are only skipped when strictly worse — so the search is exact: it
// returns precisely what a full scan scoring through the same dot-product
// kernel would, in the same order (Less: score ascending, then address),
// selected through the same TopK the engine's scan uses. Recall
// against an exact scan is therefore 1.0 by construction; the tree only
// changes how much of the directory is touched per query.
//
// A leaf that survives the bound is scored with one mat.DotBlockInto
// call over its contiguous run of the vector arena — the body mat.Dot
// runs too, so every score has the scan's bits — and its scores are then
// offered to the TopK in point order.
//
// The tree is built per model epoch, immutable once built, and safe for
// concurrent searches. Hosts that registered after the build are not in
// the tree; the query engine scans those beside the search and rebuilds
// once they grow too many.
package knnindex

import (
	"math"

	"github.com/ides-go/ides/internal/mat"
)

// leafSize is the subtree size below which splitting stops, and the
// most points one block-kernel call scores (a degenerate leaf of equal
// points, which no split shrinks, is scored in runs of it). A leaf is
// one mat.DotBlockInto call into a stack array of leafSize scores. With
// that kernel BenchmarkSearch reads 64 slower than 32 at 8,192 and at
// 100,000 points (larger leaves score points the bound would have
// pruned) and 16 no faster (smaller ones pay more recursion and bounds).
const leafSize = 32

// Point is one host handed to Build: its address and the In-vector
// queries are scored against. Build copies both; the caller's points are
// neither modified nor retained.
type Point struct {
	Addr string
	Vec  []float64
}

// Neighbor is one k-nearest result, of the tree search and of the query
// engine's exact scan alike.
type Neighbor struct {
	Addr string
	// Millis is the estimated distance q·Vec in milliseconds.
	Millis float64
}

// node is one KD-tree node. Every node keeps the bounding box of its
// points as offsets into the index's shared box arena; internal nodes
// split on one dimension, leaves hold a contiguous range of points.
type node struct {
	box         int32 // boxes[box : box+2*dim]: lo then hi
	left, right int32 // children, -1 for leaves
	start, end  int32 // leaf point range
}

// Index is an immutable KD-tree over a set of points. The vectors live
// in one n × dim arena in tree order, so a leaf is one contiguous run of
// memory (32 points × 8 dims = 2 KB) that the scoring loop streams
// through; the addresses sit beside it and are only touched for a point
// whose score already beats the current k-th best.
type Index struct {
	dim   int
	vecs  []float64 // point i is vecs[i*dim : (i+1)*dim]
	addrs []string
	nodes []node
	boxes []float64
}

// Build constructs an index over pts for the given dimension. Points
// whose vectors have a different length or non-finite coordinates are
// dropped (a non-finite coordinate would poison every bounding box above
// it; such entries are unrankable by the scan too). Returns nil when
// nothing is indexable.
func Build(pts []Point, dim int) *Index {
	if dim <= 0 {
		return nil
	}
	ix := &Index{
		dim:   dim,
		vecs:  make([]float64, 0, len(pts)*dim),
		addrs: make([]string, 0, len(pts)),
	}
	for _, p := range pts {
		if len(p.Vec) == dim && finite(p.Vec) {
			ix.vecs = append(ix.vecs, p.Vec...)
			ix.addrs = append(ix.addrs, p.Addr)
		}
	}
	n := len(ix.addrs)
	if n == 0 {
		return nil
	}
	nn := treeSize(n)
	ix.nodes = make([]node, 0, nn)
	ix.boxes = make([]float64, 0, nn*2*dim)
	ix.build(0, int32(n))
	return ix
}

// treeSize is the node count of the tree build makes over n points
// (fewer if a degenerate box ends a branch early), so nodes and boxes are
// allocated once at their final size.
func treeSize(n int) int {
	if n <= leafSize {
		return 1
	}
	return 1 + treeSize(n/2) + treeSize(n-n/2)
}

// Dim returns the vector dimension the index was built for.
func (ix *Index) Dim() int { return ix.dim }

// Len returns the number of indexed points.
func (ix *Index) Len() int {
	if ix == nil {
		return 0
	}
	return len(ix.addrs)
}

// Nodes returns the tree's node count (telemetry).
func (ix *Index) Nodes() int {
	if ix == nil {
		return 0
	}
	return len(ix.nodes)
}

// vec returns point i's vector, capped at exactly dim elements so the
// scoring kernel sees the same bounds it would on a standalone slice.
func (ix *Index) vec(i int32) []float64 {
	lo, hi := int(i)*ix.dim, (int(i)+1)*ix.dim
	return ix.vecs[lo:hi:hi]
}

// coord returns coordinate d of point i.
func (ix *Index) coord(i int32, d int) float64 { return ix.vecs[int(i)*ix.dim+d] }

// swap exchanges points i and j.
func (ix *Index) swap(i, j int32) {
	vi, vj := ix.vec(i), ix.vec(j)
	for d := range vi {
		vi[d], vj[d] = vj[d], vi[d]
	}
	ix.addrs[i], ix.addrs[j] = ix.addrs[j], ix.addrs[i]
}

// build adds the subtree over points [start, end) and returns its node
// id, reordering that range of the arena in place.
func (ix *Index) build(start, end int32) int32 {
	id := int32(len(ix.nodes))
	bi := int32(len(ix.boxes))
	ix.boxes = append(ix.boxes, make([]float64, 2*ix.dim)...)
	lo := ix.boxes[bi : bi+int32(ix.dim)]
	hi := ix.boxes[bi+int32(ix.dim) : bi+2*int32(ix.dim)]
	for d := range lo {
		lo[d] = math.Inf(1)
		hi[d] = math.Inf(-1)
	}
	for i := start; i < end; i++ {
		for d, v := range ix.vec(i) {
			if v < lo[d] {
				lo[d] = v
			}
			if v > hi[d] {
				hi[d] = v
			}
		}
	}
	ix.nodes = append(ix.nodes, node{box: bi, left: -1, right: -1, start: start, end: end})
	if end-start <= leafSize {
		return id
	}
	// Split on the widest box dimension at the median. A degenerate box
	// (all points identical) stays a leaf regardless of size.
	split, width := 0, 0.0
	for d := 0; d < ix.dim; d++ {
		if w := hi[d] - lo[d]; w > width {
			split, width = d, w
		}
	}
	if width == 0 {
		return id
	}
	mid := start + (end-start)/2
	ix.selectNth(start, end, mid, split)
	// Children are appended after this node, so re-index via the local id.
	l := ix.build(start, mid)
	r := ix.build(mid, end)
	ix.nodes[id].left, ix.nodes[id].right = l, r
	return id
}

// selectNth partitions points [start, end) so the one at position nth is
// in its sorted-by-dimension place (quickselect with median-of-three
// pivoting; ties broken by address so the partition is deterministic for
// a given input ordering).
func (ix *Index) selectNth(start, end, nth int32, d int) {
	for end-start > 1 {
		p := ix.medianOfThree(start, end, d)
		lt, gt := ix.partition(start, end, p, d)
		switch {
		case nth < lt:
			end = lt
		case nth >= gt:
			start = gt
		default:
			return // nth falls inside the pivot-equal run
		}
	}
}

// medianOfThree picks a pivot index for points [start, end) on
// dimension d.
func (ix *Index) medianOfThree(start, end int32, d int) int32 {
	mid := start + (end-start)/2
	a, b, c := start, mid, end-1
	if ix.less(b, a, d) {
		a, b = b, a
	}
	if ix.less(c, b, d) {
		b = c
		if ix.less(b, a, d) {
			b = a
		}
	}
	return b
}

// less orders points i, j by coordinate d, then address.
func (ix *Index) less(i, j int32, d int) bool {
	vi, vj := ix.coord(i, d), ix.coord(j, d)
	if vi != vj {
		return vi < vj
	}
	return ix.addrs[i] < ix.addrs[j]
}

// partition three-way partitions points [start, end) around the value at
// pivot on dimension d, returning the bounds [lt, gt) of the pivot-equal
// run.
func (ix *Index) partition(start, end, pivot int32, d int) (int32, int32) {
	ix.swap(pivot, start)
	// The pivot rides along at lt as smaller points are swapped below it,
	// so its value is read once, up front.
	pv, pa := ix.coord(start, d), ix.addrs[start]
	lt, i, gt := start, start+1, end
	for i < gt {
		v := ix.coord(i, d)
		switch {
		case v < pv || (v == pv && ix.addrs[i] < pa):
			ix.swap(lt, i)
			lt++
			i++
		case v > pv || ix.addrs[i] > pa:
			gt--
			ix.swap(gt, i)
		default:
			i++
		}
	}
	return lt, gt
}

// SearchOptions filter a search.
type SearchOptions struct {
	// Exclude names one address to leave out (typically the querier).
	Exclude string
	// Accept, if set, is consulted before a candidate may enter the
	// result set — the engine's liveness check against the directory. It
	// is only called for candidates that would otherwise make the top k,
	// so the cost is O(result churn), not O(points visited).
	Accept func(addr string) bool
	// Stats, if set, receives search effort counters.
	Stats *SearchStats
}

// SearchStats reports how much of the tree one search touched.
type SearchStats struct {
	// Scored counts points actually dotted against the query; Pruned
	// counts subtrees skipped by the bound. Scored/Len is the visited
	// fraction — the sublinearity evidence.
	Scored, Pruned int
}

// Search returns the k points minimizing q·Vec, ascending by score with
// ties broken by address — exactly the order the engine's exact scan
// produces. Returns nil when q's length does not match the index
// dimension.
func (ix *Index) Search(q []float64, k int, opts SearchOptions) []Neighbor {
	if ix == nil || k <= 0 || len(q) != ix.dim {
		return nil
	}
	s := searcher{ix: ix, q: q, opts: opts, top: NewTopK(min(k, len(ix.addrs)))}
	s.visit(0)
	return s.top.Sorted()
}

type searcher struct {
	ix   *Index
	q    []float64
	opts SearchOptions
	// top holds the k best so far; its worst is the bound the tree is
	// pruned against.
	top TopK
}

func (s *searcher) visit(id int32) {
	n := &s.ix.nodes[id]
	if n.left < 0 {
		// A degenerate leaf (identical points) may exceed leafSize.
		for start := n.start; start < n.end; start += leafSize {
			s.scoreRun(start, min(start+leafSize, n.end))
		}
		return
	}
	// Descend into the more promising child first so the bound tightens
	// before the other side is considered.
	lb := s.lowerBound(s.ix.nodes[n.left].box)
	rb := s.lowerBound(s.ix.nodes[n.right].box)
	if lb <= rb {
		s.visitChild(n.left, lb)
		s.visitChild(n.right, rb)
	} else {
		s.visitChild(n.right, rb)
		s.visitChild(n.left, lb)
	}
}

// visitChild prunes a subtree only when its bound is strictly worse than
// the current k-th best: an equal bound could still hold an equal-score
// point that wins its tie-break on address, and skipping it would
// diverge from the exact scan.
func (s *searcher) visitChild(id int32, lb float64) {
	if s.top.full() && lb > s.top.worst().Millis {
		if s.opts.Stats != nil {
			s.opts.Stats.Pruned++
		}
		return
	}
	s.visit(id)
}

// lowerBound computes LB(box) = Σ_d min(q_d·lo_d, q_d·hi_d), picking the
// minimizing corner by q_d's sign (lo ≤ hi, so the products order the
// same way).
func (s *searcher) lowerBound(bi int32) float64 {
	d := int32(s.ix.dim)
	lo := s.ix.boxes[bi : bi+d]
	hi := s.ix.boxes[bi+d : bi+2*d]
	var sum float64
	for i, qv := range s.q {
		c := lo[i]
		if qv < 0 {
			c = hi[i]
		}
		sum += qv * c
	}
	return sum
}

// scoreRun scores points [start, end), at most leafSize of them, with
// one call of the block kernel over their arena run, then admits each in
// point order if it ranks among the k best so far. The address is read
// only once a score says the point is a contender, so a leaf of losers
// touches nothing but the vector arena.
func (s *searcher) scoreRun(start, end int32) {
	var buf [leafSize]float64
	scores := buf[:end-start]
	dim := s.ix.dim
	// Bit for bit mat.Dot, the kernel the exact scan scores through, so
	// both paths agree on every estimate.
	mat.DotBlockInto(scores, s.ix.vecs[int(start)*dim:int(end)*dim], s.q)
	if s.opts.Stats != nil {
		s.opts.Stats.Scored += len(scores)
	}
	bound := s.top.Bound()
	for j, score := range scores {
		if math.IsNaN(score) || score > bound {
			continue
		}
		cand := Neighbor{Addr: s.ix.addrs[start+int32(j)], Millis: score}
		if cand.Addr == s.opts.Exclude || !s.top.admits(cand) {
			continue
		}
		if s.opts.Accept != nil && !s.opts.Accept(cand.Addr) {
			continue
		}
		s.top.push(cand)
		bound = s.top.Bound()
	}
}

// Less is the one k-nearest result order: distance ascending, then
// address. On NaN-free distances it is a strict total order, so over
// hosts offered once each the k least are unique in whatever order they
// arrive: the tree search and the engine's parallel scan agree exactly.
func Less(a, b Neighbor) bool {
	if a.Millis != b.Millis {
		return a.Millis < b.Millis
	}
	return a.Addr < b.Addr
}

// TopK selects the k least neighbors under Less from a stream of offers:
// a max-heap rooted at the current k-th best, so an offer that cannot
// enter costs one comparison and one that can costs O(log k).
type TopK struct {
	k     int
	items []Neighbor
}

// NewTopK returns an empty selection of the k least; k ≤ 0 keeps none.
// It reserves room for at most 1024, so a huge k costs only what arrives.
func NewTopK(k int) TopK {
	k = max(k, 0)
	return TopK{k: k, items: make([]Neighbor, 0, min(k, 1024))}
}

// Offer admits n if it ranks among the k least offered so far. A NaN
// distance is unrankable and dropped.
func (t *TopK) Offer(n Neighbor) {
	if !math.IsNaN(n.Millis) && t.admits(n) {
		t.push(n)
	}
}

// Sorted ends the selection: it heap-sorts the held neighbors ascending
// by Less, in place, and returns them.
func (t *TopK) Sorted() []Neighbor {
	all := t.items
	for n := len(all) - 1; n > 0; n-- {
		all[0], all[n] = all[n], all[0]
		t.items = all[:n]
		t.down(0)
	}
	t.items = all
	return all
}

// Bound is the largest distance an offer may have and still enter: the
// k-th best once k are held, +Inf before. A caller that builds its
// Neighbor lazily (the engine's scan) checks it first.
func (t *TopK) Bound() float64 {
	if !t.full() || t.k == 0 {
		return math.Inf(1)
	}
	return t.worst().Millis
}

// full reports whether k neighbors are held, so that worst is the bound
// a candidate has to beat.
func (t *TopK) full() bool { return len(t.items) == t.k }

// worst is the k-th best held; only a full selection with k > 0 has one.
func (t *TopK) worst() Neighbor { return t.items[0] }

// admits reports whether n would enter the selection.
func (t *TopK) admits(n Neighbor) bool {
	return !t.full() || (t.k > 0 && Less(n, t.worst()))
}

// push adds n, which admits has accepted: appended while the selection
// is short, in place of the worst once it is full.
func (t *TopK) push(n Neighbor) {
	if !t.full() {
		t.items = append(t.items, n)
		t.up(len(t.items) - 1)
		return
	}
	t.items[0] = n
	t.down(0)
}

func (t *TopK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !Less(t.items[parent], t.items[i]) {
			return
		}
		t.items[parent], t.items[i] = t.items[i], t.items[parent]
		i = parent
	}
}

func (t *TopK) down(i int) {
	n := len(t.items)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && Less(t.items[largest], t.items[l]) {
			largest = l
		}
		if r < n && Less(t.items[largest], t.items[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		t.items[i], t.items[largest] = t.items[largest], t.items[i]
		i = largest
	}
}

func finite(v []float64) bool {
	for _, x := range v {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return false
		}
	}
	return true
}
