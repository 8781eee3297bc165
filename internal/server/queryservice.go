package server

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/lifecycle"
	"github.com/ides-go/ides/internal/query"
	"github.com/ides-go/ides/internal/wire"
)

// servedState is one immutable generation of served model state: the
// published snapshot plus the landmark addresses its rows belong to. A
// leader's addresses come from Config.Landmarks; a follower's arrive in
// each replicated Model. Handlers that grab one state (or the engine
// built over it) work against a single generation for their whole
// request.
type servedState struct {
	snap  *lifecycle.Snapshot
	addrs []string
	index map[string]int
	// model is the generation as a Model payload, encoded once at
	// Install: GetModel appends it and the replication stream frames it.
	model []byte
}

// encodeModel encodes a snapshot and its landmark addresses as a Model
// payload, the package's one conversion of a model to the wire. Vector
// storage is shared with the model, which is immutable; Encode only
// reads it.
func encodeModel(snap *lifecycle.Snapshot, addrs []string) []byte {
	msg := &wire.Model{
		Dim:       uint32(snap.Model.Dim()),
		Algorithm: snap.Model.Algorithm.String(),
		Epoch:     snap.Epoch,
		Rev:       snap.Rev,
		Landmarks: make([]wire.LandmarkVec, len(addrs)),
	}
	for i, addr := range addrs {
		msg.Landmarks[i] = wire.LandmarkVec{Addr: addr, Out: snap.Model.Outgoing(i), In: snap.Model.Incoming(i)}
	}
	return msg.Encode(nil)
}

// QueryService is the read side of the server: the host directory, the
// query engine pinned to the current model generation, and every handler
// that only reads model state. It has no idea where snapshots come from —
// a leader installs them from its lifecycle.Refitter, a follower from the
// replication stream — which is exactly what lets the same code answer
// queries in both roles at the same zero-alloc/KD-tree speed.
type QueryService struct {
	dir    *query.Directory
	engine atomic.Pointer[query.Engine]
	state  atomic.Pointer[servedState]

	// ready is closed when the first model generation is installed, so
	// GetModel on a follower can wait for replication to deliver one the
	// same way a leader waits for the first fit.
	ready     chan struct{}
	readyOnce sync.Once

	// onRegister, when set, observes the payload of every registration
	// accepted through handleRegister — the leader's hook for streaming
	// it to followers. Runs on the request goroutine after the Put; the
	// payload aliases the connection's read buffer and is only valid
	// until it returns.
	onRegister func(payload []byte)

	maxKNN, maxBatch int
	// Pre-model GetInfo defaults (a fitted model overrides all three).
	defDim       int
	defLandmarks int
	defAlgo      core.Algorithm
}

// newQueryService builds the read side over an existing directory.
func newQueryService(dir *query.Directory, cfg Config) *QueryService {
	q := &QueryService{
		dir:          dir,
		ready:        make(chan struct{}),
		maxKNN:       cfg.MaxKNN,
		maxBatch:     cfg.MaxBatch,
		defDim:       cfg.Dim,
		defLandmarks: len(cfg.Landmarks),
		defAlgo:      cfg.Algorithm,
	}
	q.setEngine(nil)
	return q
}

// setEngine installs the query engine for a (possibly nil) served state.
// The resolver closure pins that model generation: models are immutable
// once fitted, so handlers that Load the engine once per request can
// resolve any number of landmark addresses without locks and without
// ever mixing vectors from two fits.
func (q *QueryService) setEngine(st *servedState) {
	q.engine.Store(query.NewEngine(q.dir, func(addr string) (core.Vectors, bool) {
		if st == nil {
			return core.Vectors{}, false
		}
		i, ok := st.index[addr]
		if !ok {
			return core.Vectors{}, false
		}
		return st.snap.Model.Vectors(i), true
	}))
}

// Install swaps every per-generation consumer over to a freshly published
// snapshot. On a leader it runs on the refitter's loop goroutine just
// before the snapshot becomes visible; on a follower, on the replication
// stream goroutine as each Model arrives. Either way the generation is
// encoded as a Model payload here, once. For a full fit (Rev 0)
// ordering matters: the directory epoch advances first — vectors solved
// against the old model stop resolving — and only then does the engine
// start serving the new landmark vectors, so no query ever dots vectors
// from two different fits. An incremental revision keeps the epoch, and
// with it every registered host vector: only the engine's landmark
// resolver swaps to the refreshed model.
func (q *QueryService) Install(snap *lifecycle.Snapshot, addrs []string, index map[string]int) {
	st := &servedState{snap: snap, addrs: addrs, index: index, model: encodeModel(snap, addrs)}
	if snap.Rev == 0 {
		q.dir.AdvanceEpoch(snap.Epoch)
	}
	q.setEngine(st)
	q.state.Store(st)
	q.readyOnce.Do(func() { close(q.ready) })
	if snap.Rev == 0 {
		// A full fit started a new generation: every directory entry the
		// spatial k-NN index covered just went stale with the epoch. Kick
		// off the rebuild for the new generation in the background (no-op
		// under the index size threshold); KNearest serves exact scans
		// until it lands.
		q.engine.Load().RebuildKNNIndexAsync()
	}
}

// served returns the current generation, nil before the first install.
func (q *QueryService) served() *servedState { return q.state.Load() }

// Epoch returns the epoch of the served model generation, 0 before the
// first install.
func (q *QueryService) Epoch() uint64 {
	if st := q.state.Load(); st != nil {
		return st.snap.Epoch
	}
	return 0
}

// Rev returns the revision of the served generation within its epoch.
func (q *QueryService) Rev() uint64 {
	if st := q.state.Load(); st != nil {
		return st.snap.Rev
	}
	return 0
}

// waitReady blocks until a first model generation is installed or ctx
// expires — the follower-side analogue of lifecycle.Refitter.Ready.
func (q *QueryService) waitReady(ctx context.Context) error {
	select {
	case <-q.ready:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: no model published yet: %w", ctx.Err())
	}
}

func (q *QueryService) handleGetInfo(dst []byte) (wire.MsgType, []byte) {
	info := &wire.Info{
		Dim:          uint32(q.defDim),
		NumLandmarks: uint32(q.defLandmarks),
		Algorithm:    q.defAlgo.String(),
	}
	if st := q.served(); st != nil {
		info.ModelReady = true
		info.Epoch = st.snap.Epoch
		info.Dim = uint32(st.snap.Model.Dim())
		info.NumLandmarks = uint32(len(st.addrs))
		info.Algorithm = st.snap.Model.Algorithm.String()
	}
	return wire.TypeInfo, info.Encode(dst)
}

func (q *QueryService) handleRegister(payload, dst []byte) (wire.MsgType, []byte) {
	reg, err := wire.ParseRegisterHost(payload)
	if err != nil {
		return wire.AppendError(dst, wire.CodeBadRequest, err.Error())
	}
	if len(reg.Addr) == 0 {
		return wire.AppendError(dst, wire.CodeBadRequest, "empty host address")
	}
	var cur uint64
	want := q.defDim
	if st := q.served(); st != nil {
		cur = st.snap.Epoch
		want = st.snap.Model.Dim()
	}
	// During snapshot publication the directory epoch advances before
	// the snapshot becomes visible; in that window the directory is the
	// authority — accepting a registration at the snapshot's older epoch
	// would Ack an entry that is dead on arrival.
	if de := q.dir.Epoch(); de > cur {
		cur = de
	}
	// Vectors solved against any other model generation must not enter
	// the directory: estimates would mix two fits. That includes epoch 0
	// once a model is served — 0 is "before the first fit", not a pass.
	if reg.Epoch != cur {
		return wire.AppendError(dst, wire.CodeStaleEpoch,
			fmt.Sprintf("vectors solved against epoch %d, server at epoch %d: re-fetch the model and re-solve", reg.Epoch, cur))
	}
	if reg.Out.Len() != want || reg.In.Len() != want {
		return wire.AppendError(dst, wire.CodeBadRequest,
			fmt.Sprintf("vector dimension %d/%d, want %d", reg.Out.Len(), reg.In.Len(), want))
	}
	// A NaN or infinite coordinate would make this host every querier's
	// nearest neighbour (or nobody's) and split the k-NN index from the
	// exact scan. The leader is the directory's only writer, so refusing
	// it here keeps it off every follower too.
	if !finite(reg.Out) || !finite(reg.In) {
		return wire.AppendError(dst, wire.CodeBadRequest, "non-finite vector coordinate")
	}
	// The directory shard-locks internally; expiry of stale entries is
	// amortized into its per-shard sweeps, so registration is O(1).
	q.dir.PutEpochView(reg.Addr, reg.Out, reg.In, reg.Epoch)
	if q.onRegister != nil {
		q.onRegister(payload)
	}
	return wire.TypeAck, dst
}

func finite(v wire.Floats) bool {
	for i := range v.Len() {
		if x := v.At(i); math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// applyReplicated installs one registration the leader accepted. No
// epoch-staleness validation: the leader already validated it, and the
// directory's own epoch filtering makes an entry from a generation this
// follower has left behind read as absent.
func (q *QueryService) applyReplicated(reg *wire.RegisterHost) {
	if reg.Addr == "" || len(reg.Out) != len(reg.In) {
		return
	}
	q.dir.PutEpoch(reg.Addr, core.Vectors{Out: reg.Out, In: reg.In}, reg.Epoch)
}

func (q *QueryService) handleGetVectors(payload, dst []byte) (wire.MsgType, []byte) {
	addr, err := wire.GetVectorsView(payload)
	if err != nil {
		return wire.AppendError(dst, wire.CodeBadRequest, err.Error())
	}
	var resp wire.Vectors
	if v, ok := q.engine.Load().LookupBytes(addr); ok {
		resp.Found = true
		resp.Out = v.Out
		resp.In = v.In
	}
	// Stamp the epoch after the lookup: a refit landing in between then
	// yields data from the old generation stamped with the new epoch,
	// which errs toward client recovery. The reverse order could stamp
	// new-generation data with the old epoch and suppress it.
	resp.Epoch = q.Epoch()
	return wire.TypeVectors, resp.Encode(dst)
}

// handleQueryDist is the point-query hot path: address views straight
// off the request payload, a byte-keyed directory lookup, one fused dot
// product, and a response encoded into the connection's scratch — no
// heap allocation anywhere on the found path.
func (q *QueryService) handleQueryDist(payload, dst []byte) (wire.MsgType, []byte) {
	from, to, err := wire.QueryDistView(payload)
	if err != nil {
		return wire.AppendError(dst, wire.CodeBadRequest, err.Error())
	}
	var resp wire.Distance
	resp.Millis, resp.Found = q.engine.Load().EstimatePair(from, to)
	return wire.TypeDistance, resp.Encode(dst)
}

// bulkScratch is the working memory of one QueryBatch or QueryKNN
// request: the request's target views, the engine's batch scratch, and
// the reply's result slices. Both handlers draw it from one pool, so a
// steady stream of bulk queries allocates nothing per target.
type bulkScratch struct {
	targets [][]byte // views of the request frame
	batch   query.BatchScratch
	results []wire.DistResult
	entries []wire.NeighborEntry
}

// bulkScratchMaxRetain caps, in elements, the request size whose scratch
// goes back to the pool — the same idea as the wire arena's retention
// cap: a 100,000-target batch must not leave megabytes parked behind
// every P.
const bulkScratchMaxRetain = 4096

var bulkScratchPool = sync.Pool{New: func() any { return new(bulkScratch) }}

// putBulkScratch recycles sc after a request of n elements, dropping
// what it still references: target views alias a connection's read
// buffer, rows and entries alias directory-owned memory.
func putBulkScratch(sc *bulkScratch, n int) {
	if n > bulkScratchMaxRetain {
		return
	}
	clear(sc.targets)
	clear(sc.entries)
	sc.batch.Release()
	bulkScratchPool.Put(sc)
}

// handleQueryBatch answers one-source → many-targets in a single round
// trip: target views straight off the request payload (a batch over the
// limit is refused at its count field, before any target is walked), one
// grouped directory lookup, one pass of dot products, and a reply
// encoded from pooled slices — no heap allocation on the steady path.
func (q *QueryService) handleQueryBatch(payload, dst []byte) (wire.MsgType, []byte) {
	sc := bulkScratchPool.Get().(*bulkScratch)
	from, targets, err := wire.QueryBatchView(payload, q.maxBatch, sc.targets)
	if err != nil {
		bulkScratchPool.Put(sc)
		return wire.AppendError(dst, wire.CodeBadRequest, err.Error())
	}
	sc.targets = targets
	defer putBulkScratch(sc, len(targets))
	if cap(sc.results) < len(targets) {
		sc.results = make([]wire.DistResult, len(targets))
	}
	resp := wire.Distances{Results: sc.results[:len(targets)]}
	eng := q.engine.Load()
	if src, ok := eng.LookupBytes(from); ok {
		resp.SrcFound = true
		for i, est := range eng.EstimateBatchBytes(src, targets, &sc.batch) {
			resp.Results[i] = wire.DistResult{Found: est.Found, Millis: est.Millis}
		}
	} else {
		clear(resp.Results)
	}
	// Epoch stamped after the engine work, for the same recovery-biased
	// ordering as handleGetVectors.
	resp.Epoch = q.Epoch()
	return wire.TypeDistances, resp.Encode(dst)
}

// handleQueryKNN answers "the K registered hosts closest to From" from
// the epoch's spatial index, or with a partial-heap selection over the
// sharded directory when no index is current.
func (q *QueryService) handleQueryKNN(payload, dst []byte) (wire.MsgType, []byte) {
	from, reqK, err := wire.QueryKNNView(payload)
	if err != nil {
		return wire.AppendError(dst, wire.CodeBadRequest, err.Error())
	}
	if reqK == 0 {
		return wire.AppendError(dst, wire.CodeBadRequest, "k must be positive")
	}
	k := int(reqK)
	if k > q.maxKNN {
		k = q.maxKNN
	}
	eng := q.engine.Load()
	var resp wire.Neighbors
	if src, ok := eng.LookupBytes(from); ok {
		resp.SrcFound = true
		sc := bulkScratchPool.Get().(*bulkScratch)
		defer putBulkScratch(sc, k)
		sc.entries = sc.entries[:0]
		for _, n := range eng.KNearest(src, k, query.KNNOptions{Exclude: string(from)}) {
			sc.entries = append(sc.entries, wire.NeighborEntry{Addr: n.Addr, Millis: n.Millis})
		}
		resp.Entries = sc.entries
	}
	// Post-work stamp: see handleGetVectors for the ordering rationale.
	resp.Epoch = q.Epoch()
	return wire.TypeNeighbors, resp.Encode(dst)
}
