package main

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/stats"
	"github.com/ides-go/ides/internal/wire"
)

const (
	batchTargets = 256
	knnK         = 16
	// knnExactEvery: every this-many-th Neighbors reply is compared
	// against a brute-force exact top-k, outside the timed path.
	knnExactEvery = 64
	// accuracySample is how many served estimates (caller 0's first
	// point pairs, or every batchScoreEvery-th entry of its first
	// batches) are scored against ground truth. The p90 of a heavy-tailed
	// error needs this many for its run-to-run noise to stay near 2 %.
	accuracySample = 100_000
	// batchScoreEvery spreads the batch sample over many sources: 16
	// entries of each batch rather than all 256 of a few.
	batchScoreEvery = 16
	// recordedRequests is how many of caller 0's requests are kept for
	// the traced run's layer probes to replay.
	recordedRequests = 2048
)

type reqKind uint8

const (
	kindPoint reqKind = iota
	kindBatch
	kindKNN
	// kindGossip is not a server request class: gossip-fleet files its
	// Peer.GossipRound samples here so every workload shares one
	// windowResult.
	kindGossip
	numKinds
)

var kindNames = [numKinds]string{"point", "batch", "knn", "gossip"}

// mix is a request mix: each op draws one of the four slots uniformly,
// so {P,P,P,K} is a 3:1 point:knn stream.
type mix [4]reqKind

var (
	mixPoint = mix{kindPoint, kindPoint, kindPoint, kindPoint}
	mixBulk  = mix{kindBatch, kindBatch, kindBatch, kindKNN}
	mixChurn = mix{kindPoint, kindPoint, kindPoint, kindKNN}
)

// request is one generated operation, by host index.
type request struct {
	kind reqKind
	from int32
	to   []int32 // one target for a point query, batchTargets for a batch, none for k-NN
}

// reqGen produces a caller's request stream from nothing but its seed.
type reqGen struct {
	rng   *rand.Rand
	hosts int
	mix   mix
	to    []int32
}

// Stream phases, so warm-up traffic never consumes the timed stream:
// the same seed gives the same timed requests whatever the warm-up did.
const (
	phaseWarmup = iota
	phaseTimed
	phaseAccuracy
	phaseJitter
)

func streamSeed(seed int64, caller, phase int) int64 {
	return seed*1_000_003 + int64(caller)*7919 + int64(phase)*104_729
}

func newReqGen(seed int64, caller, phase, hosts int, m mix) *reqGen {
	return &reqGen{rng: rand.New(rand.NewSource(streamSeed(seed, caller, phase))), hosts: hosts, mix: m}
}

// next returns the next request; its to slice is reused by the
// following call.
func (g *reqGen) next() request {
	r := request{kind: g.mix[g.rng.Intn(len(g.mix))], from: int32(g.rng.Intn(g.hosts))}
	g.to = g.to[:0]
	switch r.kind {
	case kindPoint:
		g.to = append(g.to, int32(g.rng.Intn(g.hosts)))
	case kindBatch:
		for i := 0; i < batchTargets; i++ {
			g.to = append(g.to, int32(g.rng.Intn(g.hosts)))
		}
	}
	r.to = g.to
	return r
}

// knnCheck is one Neighbors reply held back for the exact comparison.
type knnCheck struct {
	from    int32
	entries []wire.NeighborEntry
}

// caller is one closed-loop client: it issues a request, waits for the
// reply, checks it, and only then issues the next.
type caller struct {
	id  int
	d   *deployment
	gen *reqGen
	tr  *tracer

	// onStale, when set, is how the caller recovers when a reply shows
	// the model epoch moved (refit-churn); without it a stale or
	// not-found answer for a registered host is a failed op.
	onStale func(ctx context.Context, tr *tracer) error

	qbuf, scratch []byte
	targets       []string

	seq       uint64
	samples   [numKinds][]sample
	attempted int64
	failed    int64
	failures  []string

	relErr  []float64 // caller 0 only
	record  []request // caller 0 only
	pending []knnCheck
	knnSeen int

	knnWant, knnGot int // exact-comparison recall: entries expected / matched
	staleReads      int
}

func (c *caller) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 5 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// hostIndex recovers the host index from a directory address.
func hostIndex(addr string) (int, bool) {
	if len(addr) != len("host-000000") || addr[:5] != "host-" {
		return 0, false
	}
	i, err := strconv.Atoi(addr[5:])
	return i, err == nil
}

// do runs one op. windowStart is zero during warm-up, when nothing is
// recorded. It returns the op's completion time.
func (c *caller) do(ctx context.Context, req request, windowStart time.Time) time.Time {
	timed := !windowStart.IsZero()
	d := c.d
	c.seq++
	c.tr.startOp(c.seq)
	t0 := time.Now()

	var (
		typ     wire.MsgType
		payload []byte
		err     error
		bad     string // non-empty: the op failed, and why

		dist      wire.Distance
		dists     *wire.Distances
		neighbors *wire.Neighbors
	)
	for attempt := 0; ; attempt++ {
		c.tr.begin(spEncode)
		var reqType wire.MsgType
		switch req.kind {
		case kindPoint:
			q := wire.QueryDist{From: d.names[req.from], To: d.names[req.to[0]]}
			c.qbuf, reqType = q.Encode(c.qbuf[:0]), wire.TypeQueryDist
		case kindBatch:
			c.targets = c.targets[:0]
			for _, t := range req.to {
				c.targets = append(c.targets, d.names[t])
			}
			q := wire.QueryBatch{From: d.names[req.from], Targets: c.targets}
			c.qbuf, reqType = q.Encode(c.qbuf[:0]), wire.TypeQueryBatch
		case kindKNN:
			q := wire.QueryKNN{From: d.names[req.from], K: knnK}
			c.qbuf, reqType = q.Encode(c.qbuf[:0]), wire.TypeQueryKNN
		}
		c.tr.end()

		c.tr.begin(spCall)
		typ, payload, c.scratch, err = d.pool.CallInto(ctx, d.addr, reqType, c.qbuf, c.scratch)
		c.tr.end()
		if err != nil {
			bad = fmt.Sprintf("%s: transport: %v", kindNames[req.kind], err)
			break
		}

		c.tr.begin(spDecode)
		stale := false
		switch {
		case req.kind == kindPoint && typ == wire.TypeDistance:
			dist, err = wire.ParseDistance(payload)
			stale = !dist.Found
		case req.kind == kindBatch && typ == wire.TypeDistances:
			dists, err = wire.DecodeDistances(payload)
			stale = err == nil && (!dists.SrcFound || dists.Epoch != d.epoch)
		case req.kind == kindKNN && typ == wire.TypeNeighbors:
			neighbors, err = wire.DecodeNeighbors(payload)
			stale = err == nil && (!neighbors.SrcFound || neighbors.Epoch != d.epoch)
		default:
			err = fmt.Errorf("unexpected reply type %v", typ)
		}
		c.tr.end()
		if err != nil {
			bad = fmt.Sprintf("%s: %v", kindNames[req.kind], err)
			break
		}
		if !stale {
			break
		}
		// Every host the bench names is registered, so "not found" or a
		// foreign epoch stamp means the served generation moved on.
		if c.onStale == nil || attempt > 0 {
			bad = fmt.Sprintf("%s %s: stale or not-found answer for a registered host (bench epoch %d)",
				kindNames[req.kind], d.names[req.from], d.epoch)
			break
		}
		c.staleReads++
		c.tr.forceOp(t0)
		c.checkPending() // the vectors those replies were computed from are about to be replaced
		if err := c.onStale(ctx, c.tr); err != nil {
			bad = fmt.Sprintf("recovery: %v", err)
			break
		}
	}
	t1 := time.Now()

	c.tr.begin(spCheck)
	if bad == "" {
		switch req.kind {
		case kindPoint:
			bad = c.checkPoint(req, dist, timed)
		case kindBatch:
			bad = c.checkBatch(req, dists, timed)
		case kindKNN:
			bad = c.checkKNN(req, neighbors)
		}
	}
	c.tr.end()
	c.tr.endOp()

	if timed {
		c.attempted++
		if bad != "" {
			c.fail("%s", bad)
		} else {
			c.samples[req.kind] = append(c.samples[req.kind], newSample(int64(t1.Sub(windowStart)), int64(t1.Sub(t0))))
		}
		if c.id == 0 && len(c.record) < recordedRequests {
			c.record = append(c.record, request{kind: req.kind, from: req.from, to: append([]int32(nil), req.to...)})
		}
	}
	return t1
}

// score records one served estimate against ground truth.
func (c *caller) score(from, to int32, est float64, timed bool) {
	if !timed || c.id != 0 || from == to || len(c.relErr) >= c.d.cfg.scored {
		return
	}
	c.relErr = append(c.relErr, stats.RelativeError(c.d.truth(int(from), int(to)), est))
}

// wantEstimate is the offline result: the dot product of the vectors the
// bench itself solved and registered.
func (c *caller) wantEstimate(from, to int32) float64 {
	return mat.Dot(c.d.vecs[from].Out, c.d.vecs[to].In)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func (c *caller) checkPoint(req request, got wire.Distance, timed bool) string {
	want := c.wantEstimate(req.from, req.to[0])
	if !sameBits(got.Millis, want) {
		return fmt.Sprintf("point %d->%d: served %v, offline %v", req.from, req.to[0], got.Millis, want)
	}
	c.score(req.from, req.to[0], got.Millis, timed)
	return ""
}

func (c *caller) checkBatch(req request, got *wire.Distances, timed bool) string {
	if len(got.Results) != len(req.to) {
		return fmt.Sprintf("batch: %d results for %d targets", len(got.Results), len(req.to))
	}
	for i, r := range got.Results {
		if !r.Found {
			return fmt.Sprintf("batch %d->%d: registered target not found", req.from, req.to[i])
		}
		if want := c.wantEstimate(req.from, req.to[i]); !sameBits(r.Millis, want) {
			return fmt.Sprintf("batch %d->%d: served %v, offline %v", req.from, req.to[i], r.Millis, want)
		}
		if i%batchScoreEvery == 0 {
			c.score(req.from, req.to[i], r.Millis, timed)
		}
	}
	return ""
}

// checkKNN verifies, per reply, size, order and every entry's value
// (O(k·d)); every knnExactEvery-th reply is queued for the brute-force
// comparison.
func (c *caller) checkKNN(req request, got *wire.Neighbors) string {
	want := min(knnK, len(c.d.vecs)-1)
	if len(got.Entries) != want {
		return fmt.Sprintf("knn %d: %d entries, want %d", req.from, len(got.Entries), want)
	}
	for i, e := range got.Entries {
		idx, ok := hostIndex(e.Addr)
		if !ok || idx >= len(c.d.vecs) || idx == int(req.from) {
			return fmt.Sprintf("knn %d: unexpected neighbor %q", req.from, e.Addr)
		}
		if w := c.wantEstimate(req.from, int32(idx)); !sameBits(e.Millis, w) {
			return fmt.Sprintf("knn %d->%s: served %v, offline %v", req.from, e.Addr, e.Millis, w)
		}
		if i > 0 && e.Millis < got.Entries[i-1].Millis {
			return fmt.Sprintf("knn %d: entries not ascending", req.from)
		}
	}
	c.knnSeen++
	if c.knnSeen%knnExactEvery == 0 {
		c.pending = append(c.pending, knnCheck{from: req.from, entries: got.Entries})
	}
	return ""
}

// checkPending compares the held-back Neighbors replies against the
// exact top-k of the vectors currently registered.
func (c *caller) checkPending() {
	for _, p := range c.pending {
		exact := exactKNN(c.d.vecs, int(p.from), knnK)
		c.knnWant += len(exact)
		for i, e := range p.entries {
			if idx, _ := hostIndex(e.Addr); i < len(exact) && idx == exact[i] {
				c.knnGot++
			}
		}
	}
	c.pending = c.pending[:0]
}

// exactKNN is the reference the served k-NN answers are held to: a
// brute-force scan of the bench's own vectors, ascending by estimate
// from->host, ties by address (which is index order), self excluded.
func exactKNN(vecs []core.Vectors, from, k int) []int {
	h := &scoreHeap{}
	out := vecs[from].Out
	for i := range vecs {
		if i == from {
			continue
		}
		s := scored{mat.Dot(out, vecs[i].In), i}
		if h.Len() < k {
			heap.Push(h, s)
		} else if s.less((*h)[0]) {
			(*h)[0] = s
			heap.Fix(h, 0)
		}
	}
	res := make([]int, h.Len())
	for i := len(res) - 1; i >= 0; i-- {
		res[i] = heap.Pop(h).(scored).idx
	}
	return res
}

type scored struct {
	score float64
	idx   int
}

func (a scored) less(b scored) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.idx < b.idx
}

// scoreHeap is a max-heap (worst kept candidate on top).
type scoreHeap []scored

func (h scoreHeap) Len() int           { return len(h) }
func (h scoreHeap) Less(i, j int) bool { return h[j].less(h[i]) }
func (h scoreHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *scoreHeap) Push(x any)        { *h = append(*h, x.(scored)) }
func (h *scoreHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// windowResult is what one timed window produced.
type windowResult struct {
	wall      time.Duration
	samples   [numKinds][]sample
	attempted int64
	failed    int64
	failures  []string
	relErr    []float64
	record    []request
	tracers   []*tracer

	knnWant, knnGot int
	staleReads      int
}

func (w *windowResult) all() []sample {
	var out []sample
	for _, s := range w.samples {
		out = append(out, s...)
	}
	return out
}

func (w *windowResult) ok() int64 { return w.attempted - w.failed }

// opsPerSecond is the ops_per_s metric: the median over the window's
// full 1-s slices of the successful ops completed in each. Interference
// on a shared box only ever slows a slice down, and it comes in spells of
// seconds: the whole-window mean moved 21 % between identical runs where
// this median moved 9 %. Windows shorter than three slices (-quick) fall
// back to the mean.
func (w *windowResult) opsPerSecond() float64 {
	rates := sliceRates(w.all(), w.wall)
	if len(rates) < 3 {
		return float64(w.ok()) / w.wall.Seconds()
	}
	return stats.Median(rates)
}

// servingSpec describes one closed-loop serving workload.
type servingSpec struct {
	callers int
	mix     mix
	// onStale is installed on every caller (refit-churn only).
	onStale func(ctx context.Context, tr *tracer) error
}

// runServingWindow warms the deployment up, then drives spec's callers
// for one timed window. With traced set every caller records spans.
// atStart runs between warm-up and the window, while every caller waits.
func runServingWindow(ctx context.Context, d *deployment, spec servingSpec, seed int64, warmup, window time.Duration, traced bool, atStart func()) *windowResult {
	callers := make([]*caller, spec.callers)
	epoch := time.Now()
	for i := range callers {
		callers[i] = &caller{id: i, d: d, onStale: spec.onStale}
		if traced {
			callers[i].tr = newTracer(epoch, i)
		}
	}

	var warm, timed sync.WaitGroup
	var windowStart time.Time
	start := make(chan struct{})
	walls := make([]time.Duration, len(callers))
	warmEnd := time.Now().Add(warmup)
	for _, c := range callers {
		warm.Add(1)
		timed.Add(1)
		go func(c *caller) {
			defer timed.Done()
			c.gen = newReqGen(seed, c.id, phaseWarmup, d.cfg.hosts, spec.mix)
			warmOps := 0
			for time.Now().Before(warmEnd) {
				c.do(ctx, c.gen.next(), time.Time{})
				warmOps++
			}
			// Size the sample buffers from the warm-up rate so the
			// timed loop does not grow them.
			if warmup > 0 {
				n := int(float64(warmOps)*float64(window)/float64(warmup)*1.3) + 1024
				for k := range c.samples {
					c.samples[k] = make([]sample, 0, n)
				}
			}
			c.gen = newReqGen(seed, c.id, phaseTimed, d.cfg.hosts, spec.mix)
			warm.Done()
			<-start
			last := windowStart
			for last.Sub(windowStart) < window {
				last = c.do(ctx, c.gen.next(), windowStart)
			}
			walls[c.id] = last.Sub(windowStart)
		}(c)
	}
	warm.Wait()
	atStart()
	windowStart = time.Now()
	close(start)
	timed.Wait()

	res := &windowResult{}
	for _, c := range callers {
		c.checkPending()
		res.wall = max(res.wall, walls[c.id])
		for k := range c.samples {
			res.samples[k] = append(res.samples[k], c.samples[k]...)
		}
		res.attempted += c.attempted
		res.failed += c.failed
		res.failures = append(res.failures, c.failures...)
		res.knnWant += c.knnWant
		res.knnGot += c.knnGot
		res.staleReads += c.staleReads
		if c.tr != nil {
			res.tracers = append(res.tracers, c.tr)
		}
	}
	res.relErr = callers[0].relErr
	res.record = callers[0].record
	return res
}
