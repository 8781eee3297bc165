// Package client implements the IDES ordinary-host client: it fetches the
// landmark model from the information server, measures RTT to a subset of
// landmarks, solves its own outgoing/incoming vectors by least squares
// (Eqs. 13–16), registers them in the server's directory, and then
// estimates distances to arbitrary hosts with dot products — no further
// measurement required (§5).
//
// Joining is one procedure, join: fetch the model, solve, register, and
// fetch again on CodeStaleEpoch, at most three rounds. It probes only
// when its cached landmark RTTs are missing or no longer cover the model
// (a refit changes the model, not the routes). When a read shows this
// host missing or solved against another epoch, restore re-registers
// the vectors unchanged (HostTTL expiry) or joins from the cached RTTs
// (refit). Concurrent readers share one restore, so one epoch bump costs
// one recovery round however many readers see it.
//
// All exchanges with the information server ride a transport.Pool of
// persistent connections — model fetches, registrations, vector lookups
// and queries reuse keep-alive connections instead of dialing per call.
// Supply a shared pool through Config.Pool or let New build a private
// one; Close releases the latter.
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/mat"
	"github.com/ides-go/ides/internal/transport"
	"github.com/ides-go/ides/internal/wire"
)

// Config parameterizes a Client.
type Config struct {
	// Self is this host's address, used to register in the directory.
	Self string
	// Server is the information server's address.
	Server string
	// Servers, when set, names every endpoint of a replicated serving
	// tier (leader and followers). Calls are routed through a
	// transport.ClusterPool: each goes to the healthy endpoint with the
	// fewest calls in flight, a dead endpoint is failed over
	// transparently, and a restarted one returns to rotation via
	// background probes — the client survives a leader kill without
	// surfacing a single error on the read path. Mutually exclusive with
	// Server.
	Servers []string
	// ProbeInterval is how often a downed endpoint is re-probed when
	// Servers is set. Default 500ms.
	ProbeInterval time.Duration
	// Dialer opens connections; Pinger measures RTTs.
	Dialer transport.Dialer
	Pinger transport.Pinger
	// Samples per landmark measurement (minimum is used). Default 4.
	Samples int
	// K is how many landmarks to measure (0 = all). Using fewer landmarks
	// spreads load and tolerates landmark failures at a small accuracy
	// cost (§5.2, Fig. 7); K must be at least the model dimension.
	K int
	// Seed drives the random landmark subset choice.
	Seed int64
	// NNLS solves host vectors under nonnegativity constraints (§5.1).
	NNLS bool
	// Timeout bounds each network exchange. Default 15s.
	Timeout time.Duration
	// Pool, when set, carries every server-directed exchange over pooled
	// persistent connections shared with other components. When nil, New
	// builds a private pool over Dialer (released by Close). Either way
	// the client never dials per call.
	Pool *transport.Pool
}

// Client is an IDES ordinary host. Create with New, then Bootstrap.
type Client struct {
	cfg Config

	// pool carries all exchanges with the information server; ownPool
	// records whether Close should release it. With Config.Servers set,
	// cluster wraps the pool with health-tracked failover routing and
	// owns the private pool's lifetime instead.
	pool    *transport.Pool
	cluster *transport.ClusterPool
	ownPool bool

	mu      sync.RWMutex
	model   *wire.Model
	vectors core.Vectors
	epoch   uint64 // model epoch the vectors were solved against
	// regs counts the registrations the server accepted; 0 means not
	// bootstrapped. A reader that sees it move knows the registration it
	// read under has been restored by someone else.
	regs uint64
	// measured holds the last measurement round's landmark RTTs
	// (addr → min milliseconds). RTTs are route state, not model state,
	// so they stay valid across refits: join re-solves from them instead
	// of re-probing every landmark. Read-only once stored.
	measured map[string]float64
	// cache of other hosts' vectors fetched from the directory
	peerCache map[string]core.Vectors

	// recoverMu single-flights restore: when many in-flight reads see
	// the same TTL expiry or epoch bump, the first re-registers or joins
	// and the rest find regs moved and retry against its result, so one
	// bump costs one join round however many readers see it.
	recoverMu sync.Mutex
}

// New validates cfg and builds a Client.
func New(cfg Config) (*Client, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("client: Self must be set")
	}
	if cfg.Server == "" && len(cfg.Servers) == 0 {
		return nil, fmt.Errorf("client: Server or Servers must be set")
	}
	if cfg.Server != "" && len(cfg.Servers) > 0 {
		return nil, fmt.Errorf("client: Server and Servers are mutually exclusive")
	}
	if cfg.Dialer == nil || cfg.Pinger == nil {
		return nil, fmt.Errorf("client: Dialer and Pinger must be set")
	}
	if cfg.Samples <= 0 {
		cfg.Samples = 4
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 15 * time.Second
	}
	c := &Client{cfg: cfg, pool: cfg.Pool, peerCache: make(map[string]core.Vectors)}
	if len(cfg.Servers) > 0 {
		cluster, err := transport.NewClusterPool(transport.ClusterConfig{
			Servers: cfg.Servers,
			Pool:    cfg.Pool,
			PoolConfig: transport.PoolConfig{
				Dialer:      cfg.Dialer,
				CallTimeout: cfg.Timeout,
			},
			ProbeInterval: cfg.ProbeInterval,
		})
		if err != nil {
			return nil, fmt.Errorf("client: %w", err)
		}
		c.cluster = cluster
		c.pool = cluster.Pool()
		return c, nil
	}
	if c.pool == nil {
		pool, err := transport.NewPool(transport.PoolConfig{
			Dialer:      cfg.Dialer,
			CallTimeout: cfg.Timeout,
		})
		if err != nil {
			return nil, fmt.Errorf("client: %w", err)
		}
		c.pool, c.ownPool = pool, true
	}
	return c, nil
}

// Close releases the client's private connection pool (a no-op when the
// pool was supplied through Config.Pool). The client is unusable after.
func (c *Client) Close() error {
	if c.cluster != nil {
		return c.cluster.Close()
	}
	if c.ownPool {
		return c.pool.Close()
	}
	return nil
}

// Cluster exposes the failover router when the client was configured
// with Config.Servers (nil otherwise) — for health inspection and
// metric registration.
func (c *Client) Cluster() *transport.ClusterPool { return c.cluster }

// call performs one pooled request/response exchange with the information
// server under the configured per-exchange timeout. With Config.Servers
// set, the exchange is routed through the cluster with automatic
// failover; otherwise it goes straight to Config.Server.
func (c *Client) call(ctx context.Context, t wire.MsgType, payload []byte) (wire.MsgType, []byte, error) {
	rctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	if c.cluster != nil {
		rt, rp, _, err := c.cluster.Call(rctx, t, payload)
		return rt, rp, err
	}
	return c.pool.Call(rctx, c.cfg.Server, t, payload)
}

// Bootstrap performs the full §5.1 join sequence: fetch model, measure
// landmarks, solve vectors, register. It is safe to call again later to
// re-measure (e.g. after a route change).
func (c *Client) Bootstrap(ctx context.Context) error { return c.join(ctx, nil) }

// join fetches the model, solves this host's vectors from measured and
// registers them, measuring first when measured is nil or no longer
// covers the model (its landmark set changed or its dimension grew). A
// refit landing before the registration makes it stale; the RTTs still
// hold, so join fetches and re-solves again, at most three rounds.
func (c *Client) join(ctx context.Context, measured map[string]float64) error {
	var err error
	for round := 0; round < 3; round++ {
		var model *wire.Model
		if model, err = c.fetchModel(ctx); err != nil {
			return err
		}
		err = core.ErrTooFewObservations
		if measured != nil {
			err = c.solveAndRegister(ctx, model, measured)
		}
		if errors.Is(err, core.ErrTooFewObservations) {
			if measured, err = c.measure(ctx, model); err != nil {
				return err
			}
			err = c.solveAndRegister(ctx, model, measured)
		}
		if !isStaleEpoch(err) {
			return err
		}
	}
	return fmt.Errorf("client: model epoch kept moving while joining: %w", err)
}

// measure probes k landmarks of model in the seeded order, skipping
// ones that fail, and returns their RTTs (addr → min milliseconds).
func (c *Client) measure(ctx context.Context, model *wire.Model) (map[string]float64, error) {
	dim := int(model.Dim)
	k := c.cfg.K
	if k <= 0 || k > len(model.Landmarks) {
		k = len(model.Landmarks)
	}
	if k < dim {
		return nil, fmt.Errorf("client: K=%d landmarks < model dimension %d (problem singular, §5.2)", k, dim)
	}

	// Choose the landmark subset and measure.
	order := rand.New(rand.NewSource(c.cfg.Seed)).Perm(len(model.Landmarks))
	measured := make(map[string]float64, k)
	var lastErr error
	for _, li := range order {
		if len(measured) == k {
			break
		}
		lm := model.Landmarks[li]
		pctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
		rtt, err := c.cfg.Pinger.Ping(pctx, lm.Addr, c.cfg.Samples)
		cancel()
		if err != nil {
			// Landmark failure tolerance: skip and try another (§5.2).
			lastErr = err
			continue
		}
		measured[lm.Addr] = float64(rtt) / float64(time.Millisecond)
	}
	if len(measured) < dim {
		return nil, fmt.Errorf("client: only %d of %d landmark measurements succeeded (need >= %d): %w",
			len(measured), k, dim, lastErr)
	}
	return measured, nil
}

// solveAndRegister places this host against the given model from a set
// of landmark RTT measurements, registers the solved vectors at the
// model's epoch, and commits the new state. The measurement map is
// stored as-is and treated as read-only afterwards.
func (c *Client) solveAndRegister(ctx context.Context, model *wire.Model, measured map[string]float64) error {
	m, dim := len(model.Landmarks), int(model.Dim)
	landmarks := core.Model{X: mat.NewDense(m, dim), Y: mat.NewDense(m, dim)}
	idx := make([]int, 0, len(measured))
	rtt := make([]float64, 0, len(measured))
	for i, lm := range model.Landmarks {
		landmarks.X.SetRow(i, lm.Out)
		landmarks.Y.SetRow(i, lm.In)
		if ms, ok := measured[lm.Addr]; ok {
			idx = append(idx, i)
			rtt = append(rtt, ms)
		}
	}
	// Ping measures round-trip time, the metric the landmark matrix is
	// built from; it serves as both the to- and from- distance.
	vec, err := landmarks.SolveHostSubset(idx, rtt, rtt, c.cfg.NNLS)
	if err != nil {
		return fmt.Errorf("client: solving vectors: %w", err)
	}
	if err := c.register(ctx, vec, model.Epoch); err != nil {
		return err
	}

	c.mu.Lock()
	c.model = model
	c.vectors = vec
	c.epoch = model.Epoch
	c.regs++
	c.measured = measured
	// Cached peer vectors from an earlier epoch must not be dotted with
	// the fresh self vectors.
	c.peerCache = make(map[string]core.Vectors)
	c.mu.Unlock()
	return nil
}

// register publishes vec in the directory, stamped with the epoch it
// was solved against so the server can refuse it if the model moved
// meanwhile.
func (c *Client) register(ctx context.Context, vec core.Vectors, epoch uint64) error {
	reg := &wire.RegisterHost{Addr: c.cfg.Self, Out: vec.Out, In: vec.In, Epoch: epoch}
	respT, _, err := c.call(ctx, wire.TypeRegisterHost, reg.Encode(nil))
	if err != nil {
		return fmt.Errorf("client: registering: %w", err)
	}
	if respT != wire.TypeAck {
		return fmt.Errorf("client: register answered with %v, want Ack", respT)
	}
	return nil
}

// isStaleEpoch reports whether err is the server's CodeStaleEpoch
// rejection.
func isStaleEpoch(err error) bool {
	var werr *wire.Error
	return errors.As(err, &werr) && werr.Code == wire.CodeStaleEpoch
}

// restore heals this host's registration after a read found it missing
// or answered at epoch served; seen is the regs the reader captured with
// its vectors. At this host's epoch (or 0, no stamp) only the HostTTL
// expired: the vectors are re-registered unchanged, unless another
// reader already did since seen. Otherwise, or if that comes back
// stale, the model moved: join from the cached RTTs.
func (c *Client) restore(ctx context.Context, seen, served uint64) error {
	c.recoverMu.Lock()
	defer c.recoverMu.Unlock()
	c.mu.RLock()
	regs, vec, epoch, measured := c.regs, c.vectors, c.epoch, c.measured
	c.mu.RUnlock()
	if served == 0 || served == epoch {
		if regs != seen {
			return nil
		}
		err := c.register(ctx, vec, epoch)
		if err == nil {
			c.mu.Lock()
			c.regs++
			c.mu.Unlock()
		}
		if !isStaleEpoch(err) {
			return err
		}
	}
	return c.join(ctx, measured)
}

func (c *Client) fetchModel(ctx context.Context) (*wire.Model, error) {
	respT, payload, err := c.call(ctx, wire.TypeGetModel, nil)
	if err != nil {
		return nil, fmt.Errorf("client: fetching model: %w", err)
	}
	if respT != wire.TypeModel {
		return nil, fmt.Errorf("client: GetModel answered with %v", respT)
	}
	model, err := wire.DecodeModel(payload)
	if err != nil {
		return nil, fmt.Errorf("client: decoding model: %w", err)
	}
	if len(model.Landmarks) == 0 {
		return nil, fmt.Errorf("client: server returned an empty model")
	}
	return model, nil
}

// Vectors returns this host's solved vectors. The second result is false
// before a successful Bootstrap.
func (c *Client) Vectors() (core.Vectors, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.vectors, c.regs > 0
}

// Epoch returns the model epoch this host's vectors were solved against
// (0 before Bootstrap, or against a pre-epoch server).
func (c *Client) Epoch() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.epoch
}

// staleEpoch reports whether a response epoch stamp disagrees with the
// epoch this host solved against. 0 means the server sent no stamp.
func (c *Client) staleEpoch(respEpoch uint64) bool {
	if respEpoch == 0 {
		return false
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return respEpoch != c.epoch
}

// EstimateTo predicts the distance in milliseconds from this host to the
// named host using only vector algebra: the peer's incoming vector is
// fetched from the directory (and cached), never measured.
func (c *Client) EstimateTo(ctx context.Context, addr string) (float64, error) {
	return c.estimate(ctx, addr, false)
}

// EstimateFrom predicts the distance from the named host to this host
// (they differ under asymmetric routing).
func (c *Client) EstimateFrom(ctx context.Context, addr string) (float64, error) {
	return c.estimate(ctx, addr, true)
}

// estimate resolves the peer's vectors and dots them with our own. If
// the directory response reveals an epoch bump, the whole local state —
// self vectors and peer cache — belongs to a dead generation: restore
// once and retry with everything re-read. The response epoch is compared
// against the epoch captured with the self vectors (not re-read), so a
// concurrent recovery on another goroutine cannot slip a cross-epoch
// self/peer pair through.
func (c *Client) estimate(ctx context.Context, addr string, fromPeer bool) (float64, error) {
	for attempt := 0; ; attempt++ {
		c.mu.RLock()
		regs, self, epoch := c.regs, c.vectors, c.epoch
		peer, cached := c.peerCache[addr]
		c.mu.RUnlock()
		if regs == 0 {
			return 0, fmt.Errorf("client: not bootstrapped")
		}
		if !cached {
			v, respEpoch, err := c.fetchVectors(ctx, addr, len(self.Out))
			// An epoch mismatch outranks any fetch error: a not-found
			// directory miss is often just the refit having evicted the
			// peer's whole generation, and the recovery below is what
			// makes this host usable again either way.
			if respEpoch != 0 && respEpoch != epoch {
				if attempt > 0 {
					return 0, fmt.Errorf("client: model epoch kept moving while estimating to %s", addr)
				}
				if err := c.restore(ctx, regs, respEpoch); err != nil {
					return 0, err
				}
				continue
			}
			if err != nil {
				return 0, err
			}
			peer = v
			c.mu.Lock()
			// Drop the entry if a concurrent recovery moved the epoch
			// between the capture above and now: caching a dead-generation
			// vector under the new epoch would poison later estimates.
			if c.epoch == epoch {
				c.peerCache[addr] = peer
			}
			c.mu.Unlock()
		}
		if fromPeer {
			return core.Estimate(peer, self), nil
		}
		return core.Estimate(self, peer), nil
	}
}

// fetchVectors resolves a peer's vectors: from the locally held model
// for landmark addresses, otherwise from the server's directory, where
// a reply whose vectors are not dim long is refused. The returned epoch
// is the server's stamp (our own epoch for the local landmark path,
// since the held model is that generation).
func (c *Client) fetchVectors(ctx context.Context, addr string, dim int) (core.Vectors, uint64, error) {
	// Landmarks are in the model already; skip the directory for them.
	c.mu.RLock()
	model, epoch := c.model, c.epoch
	c.mu.RUnlock()
	if model != nil {
		for i := range model.Landmarks {
			if model.Landmarks[i].Addr == addr {
				return core.Vectors{Out: model.Landmarks[i].Out, In: model.Landmarks[i].In}, epoch, nil
			}
		}
	}
	req := &wire.GetVectors{Addr: addr}
	respT, payload, err := c.call(ctx, wire.TypeGetVectors, req.Encode(nil))
	if err != nil {
		return core.Vectors{}, 0, fmt.Errorf("client: fetching vectors for %s: %w", addr, err)
	}
	if respT != wire.TypeVectors {
		return core.Vectors{}, 0, fmt.Errorf("client: GetVectors answered with %v", respT)
	}
	v, err := wire.DecodeVectors(payload)
	if err != nil {
		return core.Vectors{}, 0, fmt.Errorf("client: decoding vectors: %w", err)
	}
	if !v.Found {
		// Report the epoch alongside: the caller may recover if the miss
		// is a symptom of a refit having evicted the whole generation.
		if c.staleEpoch(v.Epoch) {
			return core.Vectors{}, v.Epoch, fmt.Errorf("client: host %s is not registered (server moved to epoch %d)", addr, v.Epoch)
		}
		return core.Vectors{}, v.Epoch, fmt.Errorf("client: host %s is not registered", addr)
	}
	if len(v.Out) != dim || len(v.In) != dim {
		return core.Vectors{}, v.Epoch, fmt.Errorf("client: host %s has vector dims %d/%d, want %d", addr, len(v.Out), len(v.In), dim)
	}
	return core.Vectors{Out: v.Out, In: v.In}, v.Epoch, nil
}

// BatchEstimate is one answer from EstimateBatch, parallel to the
// requested targets.
type BatchEstimate struct {
	Addr string
	// Millis is the estimated distance in milliseconds; meaningless when
	// Found is false.
	Millis float64
	// Found reports whether the target resolved on the server.
	Found bool
}

// EstimateBatch predicts the distance from this host to every target in
// ONE wire round trip: the server answers the whole batch from a single
// matrix-vector product over its directory. Unregistered targets come
// back with Found=false rather than failing the batch. This is the bulk
// counterpart of EstimateTo — prefer it whenever there is more than a
// handful of candidates. If the server's HostTTL expired this host's
// directory entry, or the response epoch shows the model was refit, the
// registration is restored (re-registered, or re-solved from the cached
// landmark RTTs) and the query retries once.
func (c *Client) EstimateBatch(ctx context.Context, targets []string) ([]BatchEstimate, error) {
	var resp *wire.Distances
	err := c.queryRecovering(ctx, func() (bool, uint64, error) {
		var err error
		if resp, err = c.queryBatch(ctx, targets); err != nil {
			return false, 0, err
		}
		return resp.SrcFound, resp.Epoch, nil
	})
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(targets) {
		return nil, fmt.Errorf("client: server answered %d of %d targets", len(resp.Results), len(targets))
	}
	out := make([]BatchEstimate, len(targets))
	for i, r := range resp.Results {
		out[i] = BatchEstimate{Addr: targets[i], Millis: r.Millis, Found: r.Found}
	}
	return out, nil
}

func (c *Client) queryBatch(ctx context.Context, targets []string) (*wire.Distances, error) {
	req := &wire.QueryBatch{From: c.cfg.Self, Targets: targets}
	respT, payload, err := c.call(ctx, wire.TypeQueryBatch, req.Encode(nil))
	if err != nil {
		return nil, fmt.Errorf("client: batch query: %w", err)
	}
	if respT != wire.TypeDistances {
		return nil, fmt.Errorf("client: QueryBatch answered with %v", respT)
	}
	resp, err := wire.DecodeDistances(payload)
	if err != nil {
		return nil, fmt.Errorf("client: decoding distances: %w", err)
	}
	return resp, nil
}

// queryRecovering runs a bulk read about this host, which reports whether
// the server resolved the host and the epoch it answered at. When the
// server did not resolve it, or answered from another epoch than the one
// this host's vectors were solved against, the registration is restored
// and the read runs once more.
func (c *Client) queryRecovering(ctx context.Context, query func() (srcFound bool, epoch uint64, err error)) error {
	c.mu.RLock()
	regs, epoch := c.regs, c.epoch
	c.mu.RUnlock()
	if regs == 0 {
		return fmt.Errorf("client: not bootstrapped")
	}
	found, served, err := query()
	if err != nil || found && (served == 0 || served == epoch) {
		return err
	}
	if err := c.restore(ctx, regs, served); err != nil {
		return err
	}
	if found, _, err = query(); err == nil && !found {
		err = fmt.Errorf("client: host %s is not registered even after re-registering", c.cfg.Self)
	}
	return err
}

// NeighborEstimate is one KNearest result.
type NeighborEstimate struct {
	Addr string
	// Millis is the estimated distance in milliseconds.
	Millis float64
}

// KNearest returns the k registered hosts estimated closest to this
// host, ascending, in ONE wire round trip — no candidate list needed:
// the server's query engine partially sorts its whole directory. Fewer
// than k entries come back when the directory is smaller, or when k
// exceeds the server's MaxKNN cap (default 4096). This host itself is
// excluded. Like EstimateBatch, an expired or stale self entry is
// restored before the query is retried once.
func (c *Client) KNearest(ctx context.Context, k int) ([]NeighborEstimate, error) {
	if k <= 0 {
		return nil, fmt.Errorf("client: k must be positive")
	}
	var resp *wire.Neighbors
	err := c.queryRecovering(ctx, func() (bool, uint64, error) {
		var err error
		if resp, err = c.queryKNN(ctx, k); err != nil {
			return false, 0, err
		}
		return resp.SrcFound, resp.Epoch, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]NeighborEstimate, len(resp.Entries))
	for i, e := range resp.Entries {
		out[i] = NeighborEstimate{Addr: e.Addr, Millis: e.Millis}
	}
	return out, nil
}

func (c *Client) queryKNN(ctx context.Context, k int) (*wire.Neighbors, error) {
	req := &wire.QueryKNN{From: c.cfg.Self, K: uint32(k)}
	respT, payload, err := c.call(ctx, wire.TypeQueryKNN, req.Encode(nil))
	if err != nil {
		return nil, fmt.Errorf("client: knn query: %w", err)
	}
	if respT != wire.TypeNeighbors {
		return nil, fmt.Errorf("client: QueryKNN answered with %v", respT)
	}
	resp, err := wire.DecodeNeighbors(payload)
	if err != nil {
		return nil, fmt.Errorf("client: decoding neighbors: %w", err)
	}
	return resp, nil
}

// Nearest returns the candidate with the smallest estimated distance from
// this host — the paper's mirror-selection use case (§3). The whole
// candidate list is answered by one EstimateBatch round trip instead of
// one directory lookup per candidate.
func (c *Client) Nearest(ctx context.Context, candidates []string) (string, float64, error) {
	if len(candidates) == 0 {
		return "", 0, fmt.Errorf("client: no candidates")
	}
	ests, err := c.EstimateBatch(ctx, candidates)
	if err != nil {
		return "", 0, err
	}
	bestAddr := ""
	bestDist := 0.0
	for _, e := range ests {
		if !e.Found {
			continue
		}
		if bestAddr == "" || e.Millis < bestDist {
			bestAddr, bestDist = e.Addr, e.Millis
		}
	}
	if bestAddr == "" {
		return "", 0, fmt.Errorf("client: no candidate usable: none of the %d candidates are registered", len(candidates))
	}
	return bestAddr, bestDist, nil
}

// InvalidateCache drops cached peer vectors, forcing fresh directory
// lookups (peers re-bootstrap when their routes change).
func (c *Client) InvalidateCache() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.peerCache = make(map[string]core.Vectors)
}
