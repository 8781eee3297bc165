package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ides-go/ides/internal/telemetry"
	"github.com/ides-go/ides/internal/wire"
)

// PoolConfig parameterizes a Pool.
type PoolConfig struct {
	// Dialer opens new connections (required). *net.Dialer and
	// *simnet.Host both work.
	Dialer Dialer
	// MaxIdlePerHost caps how many idle connections are kept per address;
	// surplus connections are closed when returned. Default 4.
	MaxIdlePerHost int
	// MaxPerHost caps the total connections (checked out + idle) per
	// address; callers beyond the cap wait for one to free up. Default 16.
	// Negative means unlimited.
	MaxPerHost int
	// IdleTimeout closes connections that sit unused in the pool longer
	// than this. It should stay below the server's own idle budget so the
	// pool retires connections before the peer does. Default 60s.
	IdleTimeout time.Duration
	// CallTimeout bounds a Call whose context carries no deadline of its
	// own. Default 15s. Negative disables the fallback.
	CallTimeout time.Duration
	// MuxConns selects the framing. 0 or 1: the pool keeps one
	// multiplexed (v2 framing) connection per address when the peer
	// speaks it, outside the MaxPerHost accounting, and every call is a
	// stream on it; a caller past its stream window waits for a stream
	// to free up. Negative disables multiplexing — every call then uses
	// a v1 lockstep connection. NewPool refuses anything larger than 1.
	MuxConns int
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.MaxIdlePerHost == 0 {
		c.MaxIdlePerHost = 4
	}
	if c.MaxPerHost == 0 {
		c.MaxPerHost = 16
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 60 * time.Second
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = 15 * time.Second
	}
	return c
}

// PoolStats counts pool activity since creation. Reuses/(Dials+Reuses) is
// the hit rate; Retries counts calls transparently replayed on a fresh
// connection after a pooled one turned out to be dead.
type PoolStats struct {
	Dials   int64
	Reuses  int64
	Retries int64
	// Discards counts connections dropped for any reason: broken during a
	// call, reaped after idling out, or surplus over MaxIdlePerHost.
	Discards int64
	// Idle is the number of connections currently parked in the pool
	// across all hosts — a point-in-time gauge, not a lifetime counter.
	Idle int
}

// Pool is a client-side connection pool for the IDES request/response
// protocol. Call performs one exchange over a pooled persistent
// connection instead of dialing per request: connections are kept per
// address, reused LIFO (the warmest connection first), reaped after
// IdleTimeout, and capped both in how many may exist per address
// (MaxPerHost) and how many may sit idle (MaxIdlePerHost).
//
// The frame server (Serve) answers any number of frames per connection,
// so a pooled connection stays valid until the server's idle budget
// expires it. A reused connection can always have died while idle (server
// restart, idle eviction, middlebox timeout); Call transparently retries
// exactly once on a fresh connection when that happens. All IDES
// exchanges are idempotent request/response pairs, so the single replay
// is safe.
//
// A Pool is safe for concurrent use. The zero value is not usable;
// create with NewPool and release with Close.
type Pool struct {
	cfg PoolConfig

	mu     sync.Mutex
	hosts  map[string]*hostPool
	closed bool
	// vecs, once RegisterMetrics runs, are the per-endpoint labelled
	// families new hostPools resolve their cached children from.
	vecs *poolVecs

	// arena recycles the exchange buffers of Call. A buffer belongs to
	// one call from its first attempt to its return — never to a
	// connection — so nothing the pool keeps can pin payload-sized memory.
	arena wire.Arena

	// totals aggregates every endpoint's events for Stats().
	totals poolCounters
}

// poolEvent names one of the four lifetime counters the pool keeps at
// three levels: the aggregate (Stats), the endpoint's own
// (EndpointStats) and, once RegisterMetrics ran, the endpoint's child of
// the matching ides_pool_* family.
type poolEvent int

const (
	evDial poolEvent = iota
	evReuse
	evRetry
	evDiscard
	numPoolEvents
)

// poolEventFamilies are the metric family name and help text per event.
var poolEventFamilies = [numPoolEvents][2]string{
	evDial:    {"ides_pool_dials_total", "Connections dialed by the client pool, by server endpoint."},
	evReuse:   {"ides_pool_reuses_total", "Calls served over a pooled connection, by server endpoint."},
	evRetry:   {"ides_pool_retries_total", "Calls replayed on a fresh connection after a pooled one died, by server endpoint."},
	evDiscard: {"ides_pool_discards_total", "Connections dropped (broken, idled out, or surplus), by server endpoint."},
}

type poolCounters [numPoolEvents]atomic.Int64

func (c *poolCounters) snapshot(idle int) PoolStats {
	return PoolStats{
		Dials:    c[evDial].Load(),
		Reuses:   c[evReuse].Load(),
		Retries:  c[evRetry].Load(),
		Discards: c[evDiscard].Load(),
		Idle:     idle,
	}
}

// count records one event at all three levels. hp may already have been
// forgotten by the pool (see pruneLocked); the event then lives on only
// in the aggregate, which is what EndpointStats documents.
func (p *Pool) count(hp *hostPool, ev poolEvent) {
	p.totals[ev].Add(1)
	hp.stats[ev].Add(1)
	hp.m().events[ev].Inc()
}

// pooledConn is one pool-owned lockstep connection: the raw conn, a
// small fixed-size buffered reader that lives with it (so header+payload
// replies cost one read syscall), and the endpoint entry whose slot it
// occupies — a connection in existence keeps that entry alive, so hp is
// always the live one. It carries no payload memory: the exchange buffer
// is the call's.
//
// The struct and its reader are recycled across connections: a pool that
// keeps none idle (a gossip peer dials per exchange) would otherwise pay
// 4 KiB of garbage per call for the reader alone.
type pooledConn struct {
	net.Conn
	br *bufio.Reader
	hp *hostPool
}

var pooledConnPool = sync.Pool{New: func() any {
	return &pooledConn{br: bufio.NewReaderSize(nil, 4096)}
}}

// newPooledConn wraps a freshly dialed connection to hp's endpoint.
func newPooledConn(c net.Conn, hp *hostPool) *pooledConn {
	pc := pooledConnPool.Get().(*pooledConn)
	pc.Conn, pc.hp = c, hp
	pc.br.Reset(c)
	return pc
}

// retire closes the connection and recycles its state. The caller must
// be the sole owner: nothing may touch pc afterwards.
func (pc *pooledConn) retire() {
	pc.Conn.Close()
	pc.Conn, pc.hp = nil, nil
	pc.br.Reset(nil)
	pooledConnPool.Put(pc)
}

// slotWaiter is one caller parked at the MaxPerHost cap. The waker
// closes ch to wake exactly one waiter — targeted FIFO handoff, not a
// broadcast — and sets slot when it is transferring a freed connection
// slot (the slot stays counted in active and the woken caller owns it
// outright, so a barging fast-path caller cannot steal it).
type slotWaiter struct {
	ch   chan struct{}
	slot bool
}

// hostPool tracks one address's connections under the pool mutex: the
// LIFO idle list of lockstep connections, the count of those in
// existence (checked out + idle), which MaxPerHost bounds, the FIFO
// queue of callers waiting at that cap, and the one multiplexed
// connection, which that cap does not count.
type hostPool struct {
	idle    []idleConn
	active  int
	waiters []*slotWaiter
	// reapScheduled dedups the idle-reap timer: at most one is armed per
	// host at a time.
	reapScheduled bool

	// mux is the multiplexed connection every call shares, nil before
	// the first dial and once it is found dead. muxDialing dedups dials;
	// muxWait, when non-nil, is closed as the in-progress dial resolves
	// so callers with no live conn can park for it. muxUnsupported
	// latches once the peer answers the Hello handshake with an error:
	// from then on every call takes the v1 lockstep path directly.
	mux            *MuxConn
	muxDialing     bool
	muxWait        chan struct{}
	muxUnsupported bool

	// stats are this endpoint's own counters, feeding EndpointStats and
	// backfilling the labelled metric children.
	stats poolCounters
	// mets caches this endpoint's labelled instrument children so the
	// hot path increments an atomic instead of taking the vec's child
	// lookup lock per call. Swapped atomically because counting happens
	// outside p.mu on some paths; nil until RegisterMetrics.
	mets atomic.Pointer[endpointMetrics]
}

// noMetrics is the shared children bundle before RegisterMetrics: all
// instruments nil, every method a no-op.
var noMetrics endpointMetrics

// m returns the endpoint's cached children, never nil.
func (hp *hostPool) m() *endpointMetrics {
	if m := hp.mets.Load(); m != nil {
		return m
	}
	return &noMetrics
}

// syncIdleGauge publishes the idle-list length to the endpoint's gauge.
// Callers hold p.mu (the idle list is only mutated under it).
func (hp *hostPool) syncIdleGauge() { hp.m().idle.Set(float64(len(hp.idle))) }

// endpointMetrics holds one endpoint's labelled children of the
// ides_pool_* families.
type endpointMetrics struct {
	events [numPoolEvents]*telemetry.Counter
	idle   *telemetry.Gauge
}

// poolVecs are the per-endpoint metric families, labelled by server
// address.
type poolVecs struct {
	events [numPoolEvents]*telemetry.CounterVec
	idle   *telemetry.GaugeVec
}

// resolve materializes hp's cached children for addr.
func (v *poolVecs) resolve(addr string, hp *hostPool) {
	m := &endpointMetrics{idle: v.idle.With(addr)}
	for ev, vec := range v.events {
		m.events[ev] = vec.With(addr)
	}
	hp.mets.Store(m)
}

type idleConn struct {
	c     *pooledConn
	since time.Time
}

// NewPool validates cfg, applies defaults, and builds a Pool.
func NewPool(cfg PoolConfig) (*Pool, error) {
	if cfg.Dialer == nil {
		return nil, errors.New("transport: pool needs a Dialer")
	}
	if cfg.MuxConns > 1 {
		return nil, fmt.Errorf("transport: pool keeps one mux connection per address, MuxConns %d", cfg.MuxConns)
	}
	return &Pool{cfg: cfg.withDefaults(), hosts: make(map[string]*hostPool)}, nil
}

// Call performs one request/response exchange with the IDES peer at addr
// over a pooled connection, with Roundtrip's semantics: a wire.Error
// response is decoded and returned as an error (the connection is healthy
// and goes back to the pool). If the context carries no deadline the
// pool's CallTimeout applies.
func (p *Pool) Call(ctx context.Context, addr string, t wire.MsgType, payload []byte) (wire.MsgType, []byte, error) {
	rt, rp, _, err := p.call(ctx, addr, t, payload, nil, true)
	return rt, rp, err
}

// CallInto is Call with caller-managed memory, mirroring RoundtripInto:
// the exchange runs through buf and the reply payload aliases the
// returned scratch, valid only until the scratch is reused. The request
// payload must not alias buf. A steady caller that threads the scratch
// from one call to the next performs zero heap allocations per exchange.
func (p *Pool) CallInto(ctx context.Context, addr string, t wire.MsgType, payload, buf []byte) (wire.MsgType, []byte, []byte, error) {
	return p.call(ctx, addr, t, payload, buf, false)
}

// isWireError reports whether err is (or wraps) a wire.Error — an
// application-level error frame from a healthy connection.
func isWireError(err error) bool {
	var werr *wire.Error
	return errors.As(err, &werr)
}

// lease is what one attempt of an exchange runs over: a stream on a
// multiplexed connection (mc), or a lockstep connection held exclusively
// (pc) — popped from the idle list, freshly dialed, or the probe
// connection a v1-only peer just downgraded. hp is the endpoint entry it
// was taken from. reused marks a connection that existed before this
// call: the call counts as a pool hit rather than as the dial, and a
// lockstep one may have died while it sat idle.
type lease struct {
	hp     *hostPool
	mc     *MuxConn
	pc     *pooledConn
	reused bool
}

// call is the one exchange loop: acquire a lease, run the exchange over
// it, release it, and replay once when the pooled connection turned out
// to be dead — all IDES exchanges are idempotent. The exchange buffer
// belongs to the call on both connection kinds: the caller's for
// CallInto, with the reply aliasing it; for Call (copyOut) one from the
// arena, the reply copied into a fresh caller-owned slice before the
// buffer goes back.
func (p *Pool) call(ctx context.Context, addr string, t wire.MsgType, payload, buf []byte, copyOut bool) (wire.MsgType, []byte, []byte, error) {
	if _, ok := ctx.Deadline(); !ok && p.cfg.CallTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.cfg.CallTimeout)
		defer cancel()
	}
	if copyOut {
		buf = p.arena.Get(wire.HeaderSize + len(payload))
	}
	var rt wire.MsgType
	var rp []byte
	var err error
	for attempt := 0; ; attempt++ {
		// The replay must not pop another pooled connection: when one idle
		// connection turns out dead its cohort (same server restart or idle
		// eviction) almost certainly is too, so it flushes the idle list
		// and dials fresh.
		var l lease
		if l, err = p.acquire(ctx, addr, attempt > 0); err != nil {
			break
		}
		if l.reused {
			p.count(l.hp, evReuse)
		}
		if l.mc != nil {
			rt, rp, buf, err = l.mc.CallInto(ctx, t, payload, buf)
		} else {
			rt, rp, buf, err = roundtripInto(ctx, l.pc, l.pc.br, t, payload, buf)
		}
		// The wire-error test lives in a helper so its errors.As target
		// only materializes on the error path: taking the target's
		// address here would heap-allocate it on every successful call.
		ok := err == nil || isWireError(err)
		if replay := p.release(addr, l, ok); !replay || attempt > 0 || ctx.Err() != nil {
			break
		}
		p.count(l.hp, evRetry)
	}
	if copyOut {
		if len(rp) > 0 {
			rp = append([]byte(nil), rp...)
		}
		p.arena.Put(buf)
		buf = nil
	}
	return rt, rp, buf, err
}

// acquire leases a connection to addr: the mux connection when the peer
// speaks mux framing, else a lockstep connection — the kind is decided
// by what the peer answers to Hello, or by MuxConns < 0 without asking.
func (p *Pool) acquire(ctx context.Context, addr string, replay bool) (lease, error) {
	if p.cfg.MuxConns >= 0 {
		if l, err := p.acquireMux(ctx, addr); err != nil || l.hp != nil {
			return l, err
		}
	}
	pc, reused, err := p.get(ctx, addr, replay)
	if err != nil {
		return lease{}, err
	}
	return lease{hp: pc.hp, pc: pc, reused: reused}, nil
}

// release ends a lease after its exchange. ok means the exchange
// completed — with a reply or an application-level error frame — so the
// connection is healthy: a lockstep one goes back to the idle list, a
// stream needs nothing. Otherwise the lockstep connection is discarded,
// and a mux connection dropped if it died (a stream that merely timed
// out leaves it serving the others). It reports whether the failure is
// the kind one replay on a fresh connection cures: a lockstep connection
// that most likely died while it sat idle, or a mux connection that died
// under the call — its streams are shared, so whoever dialed it.
func (p *Pool) release(addr string, l lease, ok bool) (replay bool) {
	switch {
	case l.pc != nil && ok:
		p.put(addr, l.pc)
	case l.pc != nil:
		p.discard(addr, l.pc)
		return l.reused
	case !ok && l.mc.Dead():
		p.dropMux(addr, l.hp, l.mc)
		return true
	}
	return false
}

// acquireMux leases addr's one mux connection, dialing it — the first
// time, or to replace one found dead — inline while other callers park
// for that dial. The lease holds no stream: MuxConn.CallInto takes one,
// and a caller past the stream window waits there for one to free up. The zero lease with a nil error means this call
// must take a lockstep connection from the idle list or a dial; when the
// handshake just downgraded cleanly, the lease is the healthy,
// slot-accounted probe connection itself.
func (p *Pool) acquireMux(ctx context.Context, addr string) (lease, error) {
	p.mu.Lock()
	for {
		if p.closed {
			p.mu.Unlock()
			return lease{}, errors.New("transport: pool is closed")
		}
		// Resolved on every pass: while this caller was parked the entry
		// may have emptied and been dropped.
		hp := p.host(addr)
		if hp.muxUnsupported {
			p.mu.Unlock()
			return lease{}, nil
		}
		if mc := hp.mux; mc != nil {
			if !mc.Dead() {
				p.mu.Unlock()
				return lease{hp: hp, mc: mc, reused: true}, nil
			}
			hp.mux = nil
			p.count(hp, evDiscard)
		}
		if hp.muxDialing {
			// Someone is already dialing; park until that dial resolves
			// rather than stampeding the server.
			if hp.muxWait == nil {
				hp.muxWait = make(chan struct{})
			}
			ch := hp.muxWait
			p.mu.Unlock()
			select {
			case <-ch:
			case <-ctx.Done():
				return lease{}, fmt.Errorf("transport: waiting for mux connection to %s: %w", addr, ctx.Err())
			}
			p.mu.Lock()
			continue
		}
		hp.muxDialing = true
		p.mu.Unlock()
		mc, dc, err := p.dialMux(ctx, addr, hp)
		p.mu.Lock()
		p.muxDialDoneLocked(hp)
		switch {
		case err != nil:
			p.pruneLocked(addr, hp)
			p.mu.Unlock()
			return lease{}, err
		case mc != nil:
			if p.closed {
				p.mu.Unlock()
				mc.Close()
				return lease{}, errors.New("transport: pool is closed")
			}
			hp.mux = mc
			p.mu.Unlock()
			return lease{hp: hp, mc: mc}, nil
		case dc != nil:
			// Clean downgrade: the peer is v1-only. Lease the healthy
			// connection straight to this call's exchange when the
			// accounting has room for it, so the probe dial is not wasted.
			hp.muxUnsupported = true
			if !p.closed && (p.cfg.MaxPerHost < 0 || hp.active < p.cfg.MaxPerHost) {
				hp.active++
				p.mu.Unlock()
				return lease{hp: hp, pc: dc}, nil
			}
			p.mu.Unlock()
			dc.retire()
			return lease{}, nil
		default:
			// The handshake died before an answer — a server that drops
			// unknown frames, or a connection lost mid-probe. Fall back
			// to lockstep for this call without latching: a real pre-mux
			// IDES server answers with an error frame, so the next call
			// probes again rather than losing mux forever to one flake.
			p.pruneLocked(addr, hp)
			p.mu.Unlock()
			return lease{}, nil
		}
	}
}

// muxDialDoneLocked clears the dial-in-progress marker and wakes any
// callers parked on it. Caller holds p.mu.
func (p *Pool) muxDialDoneLocked(hp *hostPool) {
	hp.muxDialing = false
	if hp.muxWait != nil {
		close(hp.muxWait)
		hp.muxWait = nil
	}
}

// dialMux dials addr and negotiates mux framing. Outcomes: a live
// MuxConn; a healthy lockstep connection when the peer answered the
// probe with an error frame (clean v1 downgrade); all-nil when the
// handshake failed without a clean answer (caller falls back to
// lockstep without latching); or a dial error.
func (p *Pool) dialMux(ctx context.Context, addr string, hp *hostPool) (*MuxConn, *pooledConn, error) {
	c, err := p.cfg.Dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("transport: dialing %s: %w", addr, err)
	}
	p.count(hp, evDial)
	mc, err := NewMuxConn(ctx, c, DefaultMuxInflight)
	if errors.Is(err, ErrMuxUnsupported) {
		return nil, newPooledConn(c, hp), nil
	}
	if err != nil {
		c.Close()
		if ctx.Err() != nil {
			return nil, nil, fmt.Errorf("transport: mux handshake with %s: %w", addr, ctx.Err())
		}
		return nil, nil, nil
	}
	return mc, nil, nil
}

// dropMux closes a mux connection that died under a call and forgets
// it — unless acquireMux already has, or has dialed its replacement.
func (p *Pool) dropMux(addr string, hp *hostPool, mc *MuxConn) {
	mc.Close()
	p.mu.Lock()
	if hp.mux == mc {
		hp.mux = nil
		p.count(hp, evDiscard)
	}
	p.pruneLocked(addr, hp)
	p.mu.Unlock()
}

// MuxStats aggregates traffic counters across the live mux connections
// of every address.
func (p *Pool) MuxStats() MuxStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out MuxStats
	for _, hp := range p.hosts {
		if hp.mux == nil {
			continue
		}
		s := hp.mux.Stats()
		out.Flushes += s.Flushes
		out.Frames += s.Frames
		out.Coalesced += s.Coalesced
		out.Stale += s.Stale
	}
	return out
}

// Stats returns a snapshot of the pool's activity counters, aggregated
// across all endpoints. EndpointStats breaks the same counters down per
// server address.
func (p *Pool) Stats() PoolStats {
	return p.totals.snapshot(p.idleCount())
}

// EndpointStats returns each endpoint's own counters, keyed by server
// address. A multi-server client pools connections to several endpoints
// at once; the aggregate Stats hides which endpoint is churning
// (redialing, discarding) while the others hum, which is exactly what
// failover debugging needs to see. An endpoint is listed for as long as
// the pool holds anything for it — a connection, a waiter, a latched
// downgrade, metric children; one that holds nothing is forgotten, its
// counters living on only in the aggregate.
func (p *Pool) EndpointStats() map[string]PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]PoolStats, len(p.hosts))
	for addr, hp := range p.hosts {
		out[addr] = hp.stats.snapshot(len(hp.idle))
	}
	return out
}

// RegisterMetrics exposes the pool's counters through reg under the
// ides_pool_* families, labelled by server endpoint — the scrapeable
// replacement for logging a one-shot Stats() line at exit. Endpoints
// appear in the exposition as they are first dialed. Safe on a nil
// registry.
func (p *Pool) RegisterMetrics(reg *telemetry.Registry) {
	vecs := new(poolVecs)
	for ev, fam := range poolEventFamilies {
		vecs.events[ev] = reg.CounterVec(fam[0], fam[1], "endpoint")
	}
	vecs.idle = reg.GaugeVec("ides_pool_idle_conns",
		"Connections currently idle in the pool, by server endpoint.", "endpoint")
	p.mu.Lock()
	p.vecs = vecs
	for addr, hp := range p.hosts {
		vecs.resolve(addr, hp)
		m := hp.m()
		for ev := range m.events {
			m.events[ev].Add(uint64(hp.stats[ev].Load()))
		}
		m.idle.Set(float64(len(hp.idle)))
	}
	p.mu.Unlock()
	reg.CounterFunc("ides_pool_arena_hits_total",
		"Scratch-buffer checkouts served from the recycling arena.",
		func() float64 { return float64(p.arena.Stats().Hits) })
	reg.CounterFunc("ides_pool_arena_misses_total",
		"Scratch-buffer checkouts that had to allocate.",
		func() float64 { return float64(p.arena.Stats().Misses) })
	reg.CounterFunc("ides_pool_arena_drops_total",
		"Scratch buffers dropped at return for exceeding the retention cap.",
		func() float64 { return float64(p.arena.Stats().Drops) })
}

// ArenaStats reports the pool's scratch-buffer arena traffic.
func (p *Pool) ArenaStats() wire.ArenaStats { return p.arena.Stats() }

// Close closes every idle connection and marks the pool closed: future
// Calls fail, waiters at the per-host cap give up, and checked-out
// connections are closed as they come back. Safe to call twice.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	for _, hp := range p.hosts {
		for _, ic := range hp.idle {
			ic.c.retire()
			hp.active--
		}
		hp.idle = nil
		hp.syncIdleGauge()
		for _, w := range hp.waiters {
			close(w.ch)
		}
		hp.waiters = nil
		if hp.mux != nil {
			hp.mux.Close()
			hp.mux = nil
		}
		p.muxDialDoneLocked(hp)
	}
	return nil
}

// host returns addr's hostPool, creating it on first use. Caller holds
// p.mu.
func (p *Pool) host(addr string) *hostPool {
	hp := p.hosts[addr]
	if hp == nil {
		hp = &hostPool{}
		if p.vecs != nil {
			p.vecs.resolve(addr, hp)
		}
		p.hosts[addr] = hp
	}
	return hp
}

// pruneLocked forgets addr's entry once it tracks nothing: no connection
// checked out, idle or multiplexed, no waiter, no dial in flight, no
// armed reap, no latched downgrade and no metric children. A pool that
// keeps no connections (MaxIdlePerHost < 0, MuxConns < 0) and calls
// ever-new addresses — a gossip peer's neighbours churn for as long as
// it runs — otherwise grows one entry per address it has ever dialed.
// Every path that can leave an entry empty ends here. Caller holds p.mu.
func (p *Pool) pruneLocked(addr string, hp *hostPool) {
	if hp.active == 0 && len(hp.idle) == 0 && len(hp.waiters) == 0 &&
		hp.mux == nil && !hp.muxDialing && hp.muxWait == nil && !hp.muxUnsupported &&
		!hp.reapScheduled && hp.mets.Load() == nil && p.hosts[addr] == hp {
		delete(p.hosts, addr)
	}
}

// wakeIdle wakes the longest-waiting caller, if any, to claim a newly
// idle connection. No slot transfers: the parked connection still owns
// its slot. Caller holds p.mu.
func (hp *hostPool) wakeIdle() {
	if len(hp.waiters) > 0 {
		w := hp.waiters[0]
		hp.waiters = hp.waiters[1:]
		close(w.ch)
	}
}

// releaseSlotLocked retires one per-host connection slot: if a caller is
// queued at the cap the slot is handed to it directly — active stays
// counted, so a fast-path caller arriving later cannot barge in front of
// the queue — otherwise active is decremented. Caller holds p.mu.
func (p *Pool) releaseSlotLocked(hp *hostPool) {
	if !p.closed && len(hp.waiters) > 0 {
		w := hp.waiters[0]
		hp.waiters = hp.waiters[1:]
		w.slot = true
		close(w.ch)
		return
	}
	hp.active--
}

// get returns a connection to addr: a pooled one when available (reused
// = true), otherwise a fresh dial — waiting at the MaxPerHost cap for a
// connection to go idle or close first. mustDial skips — and flushes —
// the idle list: a retry after a dead pooled connection must not gamble
// on the rest of the same cohort.
func (p *Pool) get(ctx context.Context, addr string, mustDial bool) (conn *pooledConn, reused bool, err error) {
	p.mu.Lock()
	hp := p.host(addr)
	// granted marks that a waker handed this caller a connection slot
	// directly (active already counts it).
	granted := false
	for {
		if p.closed {
			if granted {
				hp.active--
			}
			p.mu.Unlock()
			return nil, false, errors.New("transport: pool is closed")
		}
		// LIFO pop, skipping connections that already idled out: the
		// warmest connection is the least likely to have been expired by
		// the peer.
		cutoff := time.Now().Add(-p.cfg.IdleTimeout)
		for n := len(hp.idle); n > 0; n = len(hp.idle) {
			ic := hp.idle[n-1]
			hp.idle = hp.idle[:n-1]
			hp.syncIdleGauge()
			if mustDial || ic.since.Before(cutoff) {
				p.releaseSlotLocked(hp)
				p.count(hp, evDiscard)
				p.mu.Unlock()
				ic.c.retire()
				p.mu.Lock()
				// The slot just released may have been the entry's last
				// claim on the map; a concurrent call can have pruned it.
				hp = p.host(addr)
				continue
			}
			if granted {
				// Reusing a parked connection; pass the granted slot on.
				p.releaseSlotLocked(hp)
			}
			p.mu.Unlock()
			return ic.c, true, nil
		}
		if granted || p.cfg.MaxPerHost < 0 || hp.active < p.cfg.MaxPerHost {
			if !granted {
				hp.active++
			}
			break
		}
		if ctx.Err() != nil {
			p.mu.Unlock()
			return nil, false, fmt.Errorf("transport: waiting for a connection to %s: %w", addr, ctx.Err())
		}
		// Queue FIFO behind everyone already waiting; the waker hands
		// each freed slot (or newly idle connection) to exactly one of
		// us, oldest first.
		w := &slotWaiter{ch: make(chan struct{})}
		hp.waiters = append(hp.waiters, w)
		p.mu.Unlock()
		select {
		case <-w.ch:
		case <-ctx.Done():
		}
		p.mu.Lock()
		woken := true
		for i, q := range hp.waiters {
			if q == w {
				hp.waiters = append(hp.waiters[:i], hp.waiters[i+1:]...)
				woken = false
				break
			}
		}
		granted = woken && w.slot
		if ctx.Err() != nil {
			if granted {
				p.releaseSlotLocked(hp)
			}
			p.mu.Unlock()
			return nil, false, fmt.Errorf("transport: waiting for a connection to %s: %w", addr, ctx.Err())
		}
		// Woken for a connection that went idle, this caller holds no
		// claim on the entry: if another call took that connection and
		// closed it meanwhile, the entry is gone from the map.
		hp = p.host(addr)
	}
	p.mu.Unlock()

	c, err := p.cfg.Dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		p.mu.Lock()
		p.releaseSlotLocked(hp)
		p.pruneLocked(addr, hp)
		p.mu.Unlock()
		return nil, false, fmt.Errorf("transport: dialing %s: %w", addr, err)
	}
	p.count(hp, evDial)
	return newPooledConn(c, hp), false, nil
}

// put returns a healthy connection to addr's idle list, or closes it when
// the pool is closed or the idle list is full.
func (p *Pool) put(addr string, conn *pooledConn) {
	p.mu.Lock()
	hp := conn.hp
	if p.closed || len(hp.idle) >= p.cfg.MaxIdlePerHost {
		p.dropLocked(addr, hp)
		p.mu.Unlock()
		conn.retire()
		return
	}
	hp.idle = append(hp.idle, idleConn{c: conn, since: time.Now()})
	hp.syncIdleGauge()
	p.scheduleReapLocked(addr, hp)
	hp.wakeIdle()
	p.mu.Unlock()
}

// discard closes a broken connection and releases its slot.
func (p *Pool) discard(addr string, conn *pooledConn) {
	hp := conn.hp
	conn.retire()
	p.mu.Lock()
	p.dropLocked(addr, hp)
	p.mu.Unlock()
}

// dropLocked accounts for a checked-out connection to addr that is about
// to be closed rather than parked: its slot is released, the discard
// counted, and the entry forgotten if that was its last claim. Caller
// holds p.mu and retires the connection after unlocking.
func (p *Pool) dropLocked(addr string, hp *hostPool) {
	p.releaseSlotLocked(hp)
	p.count(hp, evDiscard)
	p.pruneLocked(addr, hp)
}

// scheduleReapLocked arms a one-shot reap for addr's idle list. The pool
// has no standing goroutine: a timer fires only while connections are
// actually idling, and re-arms itself for the next-expiring one.
func (p *Pool) scheduleReapLocked(addr string, hp *hostPool) {
	if hp.reapScheduled || len(hp.idle) == 0 {
		return
	}
	hp.reapScheduled = true
	wait := time.Until(hp.idle[0].since.Add(p.cfg.IdleTimeout))
	if wait < 0 {
		wait = 0
	}
	time.AfterFunc(wait, func() { p.reap(addr) })
}

// reap closes addr's expired idle connections and re-arms the timer if
// any remain.
func (p *Pool) reap(addr string) {
	p.mu.Lock()
	hp := p.hosts[addr]
	if hp == nil {
		p.mu.Unlock()
		return
	}
	hp.reapScheduled = false
	if p.closed {
		p.mu.Unlock()
		return
	}
	cutoff := time.Now().Add(-p.cfg.IdleTimeout)
	kept := hp.idle[:0]
	var expired []*pooledConn
	for _, ic := range hp.idle {
		if ic.since.Before(cutoff) {
			expired = append(expired, ic.c)
			p.releaseSlotLocked(hp)
			p.count(hp, evDiscard)
		} else {
			kept = append(kept, ic)
		}
	}
	hp.idle = kept
	hp.syncIdleGauge()
	p.scheduleReapLocked(addr, hp)
	p.pruneLocked(addr, hp)
	p.mu.Unlock()
	for _, c := range expired {
		c.retire()
	}
}

// idleCount reports how many connections are currently idle across all
// hosts (test hook).
func (p *Pool) idleCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, hp := range p.hosts {
		n += len(hp.idle)
	}
	return n
}
