package transport

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/ides-go/ides/internal/telemetry"
	"github.com/ides-go/ides/internal/wire"
)

// ClusterConfig parameterizes a ClusterPool.
type ClusterConfig struct {
	// Servers are the endpoints calls may be routed to (required, at
	// least one). With a replicated serving tier these are the leader and
	// its followers; any of them answers reads, and followers forward
	// writes to the leader themselves, so the client needs no role
	// awareness.
	Servers []string
	// Pool, when set, carries the exchanges (shared with other users;
	// Close leaves it open). Otherwise a private pool is built from
	// PoolConfig and released by Close.
	Pool *Pool
	// PoolConfig builds the private pool when Pool is nil; its Dialer is
	// required then.
	PoolConfig PoolConfig
	// ProbeInterval is how often a failed endpoint is re-probed with a
	// Ping, and the bound on one such probe. Default 500ms. Probes stop
	// the moment the endpoint answers.
	ProbeInterval time.Duration
}

// ClusterPool routes IDES calls across a set of equivalent server
// endpoints with health tracking and automatic failover. Each call goes
// to the healthy endpoint with the fewest calls in flight (spreading
// load across replicas); a transport failure marks the endpoint down,
// counts a failover, and transparently replays the call on the next
// healthy endpoint. Downed endpoints are re-probed with Pings in the
// background and return to rotation as soon as they answer, so a
// restarted server picks its share of traffic back up without any
// client restart.
//
// Application-level error frames (wire.Error) do NOT trip failover: the
// endpoint answered, the request was just wrong or early — retrying it
// elsewhere would duplicate CodeStaleEpoch/CodeBadRequest handling at
// the wrong layer.
//
// A ClusterPool is safe for concurrent use. Create with NewClusterPool,
// release with Close.
type ClusterPool struct {
	pool    *Pool
	ownPool bool
	eps     []*clusterEndpoint

	probeInterval time.Duration

	failovers atomic.Int64
	closed    atomic.Bool
}

// clusterEndpoint is one server's health state.
type clusterEndpoint struct {
	addr     string
	down     atomic.Bool
	inflight atomic.Int64
	// probing dedups the reprobe timer: at most one armed per endpoint.
	probing atomic.Bool
	// up, once RegisterMetrics runs, exports the endpoint's health.
	// Atomic because registration can race in-flight calls; a nil load
	// yields a nil (no-op) gauge.
	up atomic.Pointer[telemetry.Gauge]
}

func (ep *clusterEndpoint) setUpGauge(v float64) { ep.up.Load().Set(v) }

// NewClusterPool validates cfg and builds a ClusterPool. Duplicate
// server addresses are rejected: they would skew least-loaded routing.
func NewClusterPool(cfg ClusterConfig) (*ClusterPool, error) {
	if len(cfg.Servers) == 0 {
		return nil, errors.New("transport: cluster needs at least one server")
	}
	seen := make(map[string]bool, len(cfg.Servers))
	eps := make([]*clusterEndpoint, len(cfg.Servers))
	for i, addr := range cfg.Servers {
		if addr == "" {
			return nil, errors.New("transport: empty server address")
		}
		if seen[addr] {
			return nil, fmt.Errorf("transport: duplicate server address %q", addr)
		}
		seen[addr] = true
		eps[i] = &clusterEndpoint{addr: addr}
	}
	cp := &ClusterPool{pool: cfg.Pool, eps: eps}
	if cp.pool == nil {
		pool, err := NewPool(cfg.PoolConfig)
		if err != nil {
			return nil, err
		}
		cp.pool, cp.ownPool = pool, true
	}
	cp.probeInterval = cfg.ProbeInterval
	if cp.probeInterval <= 0 {
		cp.probeInterval = 500 * time.Millisecond
	}
	return cp, nil
}

// Close releases the private pool (a shared Config.Pool stays open) and
// stops background probes.
func (cp *ClusterPool) Close() error {
	cp.closed.Store(true)
	if cp.ownPool {
		return cp.pool.Close()
	}
	return nil
}

// Pool exposes the underlying connection pool (for metric registration
// and stats).
func (cp *ClusterPool) Pool() *Pool { return cp.pool }

// Health reports each endpoint's current state: true = in rotation.
func (cp *ClusterPool) Health() map[string]bool {
	out := make(map[string]bool, len(cp.eps))
	for _, ep := range cp.eps {
		out[ep.addr] = !ep.down.Load()
	}
	return out
}

// pick selects the call's endpoint: the healthy endpoint with the
// fewest calls in flight, skipping addresses in tried. With every
// endpoint down or tried, it falls back to the least-loaded untried one
// — a probe may simply not have noticed a recovery yet, and a doomed
// attempt beats refusing without trying.
func (cp *ClusterPool) pick(tried map[string]bool) *clusterEndpoint {
	var best, bestAny *clusterEndpoint
	for _, ep := range cp.eps {
		if tried[ep.addr] {
			continue
		}
		if bestAny == nil || ep.inflight.Load() < bestAny.inflight.Load() {
			bestAny = ep
		}
		if ep.down.Load() {
			continue
		}
		if best == nil || ep.inflight.Load() < best.inflight.Load() {
			best = ep
		}
	}
	if best != nil {
		return best
	}
	return bestAny
}

// Call performs one exchange against the cluster with Pool.Call's
// semantics, plus failover: a transport-level failure marks the
// endpoint down and replays the call on the next one, until an endpoint
// answers or all have failed. Returns the address that served the call.
func (cp *ClusterPool) Call(ctx context.Context, t wire.MsgType, payload []byte) (wire.MsgType, []byte, string, error) {
	var lastErr error
	tried := make(map[string]bool, len(cp.eps))
	for len(tried) < len(cp.eps) {
		if cp.closed.Load() {
			return 0, nil, "", errors.New("transport: cluster pool is closed")
		}
		ep := cp.pick(tried)
		tried[ep.addr] = true
		ep.inflight.Add(1)
		rt, rp, err := cp.pool.Call(ctx, ep.addr, t, payload)
		ep.inflight.Add(-1)
		if err == nil || isWireError(err) {
			cp.markUp(ep)
			return rt, rp, ep.addr, err
		}
		lastErr = err
		if ctx.Err() != nil {
			// The caller's budget ran out, not the endpoint: failing over
			// would charge a healthy server with a cancelled request.
			break
		}
		cp.markDown(ep)
		if len(tried) < len(cp.eps) {
			cp.failovers.Add(1)
		}
	}
	return 0, nil, "", fmt.Errorf("transport: all %d cluster endpoints failed: %w", len(tried), lastErr)
}

// markUp returns a recovered endpoint to rotation.
func (cp *ClusterPool) markUp(ep *clusterEndpoint) {
	if ep.down.CompareAndSwap(true, false) {
		ep.setUpGauge(1)
	}
}

// markDown takes a failed endpoint out of rotation and arms its
// background reprobe.
func (cp *ClusterPool) markDown(ep *clusterEndpoint) {
	if ep.down.CompareAndSwap(false, true) {
		ep.setUpGauge(0)
	}
	cp.scheduleProbe(ep)
}

func (cp *ClusterPool) scheduleProbe(ep *clusterEndpoint) {
	if cp.closed.Load() || !ep.probing.CompareAndSwap(false, true) {
		return
	}
	time.AfterFunc(cp.probeInterval, func() {
		ep.probing.Store(false)
		if cp.closed.Load() || !ep.down.Load() {
			return
		}
		if cp.probe(ep) {
			cp.markUp(ep)
			return
		}
		cp.scheduleProbe(ep)
	})
}

// probe sends one Ping to ep and reports whether it answered correctly.
func (cp *ClusterPool) probe(ep *clusterEndpoint) bool {
	ctx, cancel := context.WithTimeout(context.Background(), cp.probeInterval)
	defer cancel()
	ping := wire.Ping{Token: uint64(time.Now().UnixNano())}
	rt, rp, err := cp.pool.Call(ctx, ep.addr, wire.TypePing, ping.Encode(nil))
	if err != nil || rt != wire.TypePong {
		return false
	}
	pong, err := wire.DecodePong(rp)
	return err == nil && pong.Token == ping.Token
}

// RegisterMetrics exposes the cluster's routing state through reg: a
// per-endpoint up/down gauge and the lifetime failover count. Call
// Pool().RegisterMetrics separately for the connection-level families.
// Safe on a nil registry.
func (cp *ClusterPool) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("ides_cluster_failovers_total",
		"Calls replayed on another endpoint after a transport failure.",
		func() float64 { return float64(cp.failovers.Load()) })
	upVec := reg.GaugeVec("ides_cluster_endpoint_up",
		"Whether the endpoint is in rotation (1) or marked down (0).", "endpoint")
	for _, ep := range cp.eps {
		ep.up.Store(upVec.With(ep.addr))
		if ep.down.Load() {
			ep.setUpGauge(0)
		} else {
			ep.setUpGauge(1)
		}
	}
}
