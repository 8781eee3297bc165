// Package peer implements the decentralized, landmark-free IDES mode:
// DMFSGD (Liao et al., PAPERS.md) running at the edge. Every host owns
// one row pair (x_i, y_i) of the global factorization and a bounded
// random neighbor set; on each gossip round it picks a neighbor,
// measures RTT to it, exchanges coordinate rows over the standard wire
// protocol (GossipExchange/GossipReply, carried over transport.Pool
// with mux framing when the peer speaks it), and both sides fold the
// measurement into their own rows with solve.PeerStep — the
// Kaczmarz-normalized step the centralized SGDSolver uses, split so
// each side only writes its own state. There is one update: PeerStep
// and SGDSolver run the same row update (solve's halfStep), and an
// exchange's two PeerSteps equal the solver's step on the pair bit for
// bit. Distance estimation then needs no server round-trip:
// est(i,j) = (x_i·y_j + x_j·y_i)/2 from cached or freshly fetched
// coordinates.
//
// The only central piece is an optional Rendezvous directory (what
// ides-server -role rendezvous runs): peers announce themselves to it
// and receive warm peer samples to bootstrap and re-mix their neighbor
// sets; it fits no model and serves no queries. Its directory and a
// Peer's neighbor set are the same bounded table (table.go), which is
// also where a non-finite coordinate row is turned away.
//
// A Peer is deterministic given its Config.Seed and the order of calls
// into it: all randomness (neighbor choice, sample selection, table
// eviction) draws from the table's one seeded PRNG under the peer's
// lock, so a simulated fleet driven in a fixed order is bit-identical
// across runs.
package peer

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log"
	"math"
	"sync"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/solve"
	"github.com/ides-go/ides/internal/telemetry"
	"github.com/ides-go/ides/internal/transport"
	"github.com/ides-go/ides/internal/wire"
)

// ErrNoNeighbors is returned by a gossip round that found the neighbor
// table empty and could not refill it from a rendezvous directory.
var ErrNoNeighbors = errors.New("peer: no neighbors known")

// Config parameterizes a Peer.
type Config struct {
	// Self is the address other peers dial to reach this one — its
	// identity in neighbor tables and rendezvous directories. Required.
	Self string
	// Dim is the coordinate dimensionality. Default 8; every peer in a
	// deployment must agree on it.
	Dim int
	// Algorithm selects the factorization variant: core.NMF keeps
	// coordinates nonnegative so estimates can never go negative;
	// core.SVD — the zero value, so what a Config that does not set the
	// field runs — leaves them unconstrained. (ides-peer's -alg flag
	// defaults to nmf; the harness fleets leave the field zero.)
	Algorithm core.Algorithm
	// SGD tunes the gradient updates; zero values select the solver
	// package defaults (Rate 0.3, Reg 1e-4).
	SGD solve.SGDOptions
	// Seed makes the peer's random choices reproducible.
	Seed int64
	// MaxNeighbors bounds the neighbor/coordinate table. Default 32.
	MaxNeighbors int
	// SampleSize is how many neighbor-table entries ride along on each
	// exchange, mixing the views. Default 3.
	SampleSize int
	// RendezvousAddrs lists rendezvous directories for bootstrap and
	// periodic re-announcement. Optional when neighbors are seeded with
	// AddNeighbor.
	RendezvousAddrs []string
	// Dialer opens connections for gossip calls. Required.
	Dialer transport.Dialer
	// Pinger measures RTT to gossip partners. Required.
	Pinger transport.Pinger
	// Pool overrides the transport pool configuration; its Dialer field
	// is replaced by Config.Dialer.
	Pool transport.PoolConfig
	// IdleTimeout and RequestTimeout budget the serving side, exactly
	// like the server's frontend. Defaults 60s / 10s.
	IdleTimeout    time.Duration
	RequestTimeout time.Duration
	// Metrics, when set, registers the gossip instrument families.
	Metrics *telemetry.Registry
	// Logger, when set, receives serve-loop diagnostics.
	Logger *log.Logger
}

const (
	// initRTT, in milliseconds, scales the random initial coordinates so
	// that initial estimates land near a plausible RTT instead of zero.
	initRTT = 100
	// rendezvousEvery re-announces to a rendezvous every this many gossip
	// rounds (staggered per peer so a fleet does not synchronize its
	// announcements; an empty table announces at once). It keeps the
	// directory warm and re-mixes neighbor sets after partitions heal.
	rendezvousEvery = 16
	// pingSamples is how many probes each RTT measurement takes.
	pingSamples = 1
)

func (c Config) withDefaults() Config {
	if c.Dim == 0 {
		c.Dim = 8
	}
	if c.MaxNeighbors == 0 {
		c.MaxNeighbors = 32
	}
	if c.SampleSize == 0 {
		c.SampleSize = 3
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 60 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	return c
}

// exchangeScratch is the memory one outgoing exchange runs in: the
// encoded request, and the frame buffer Pool.CallInto sends it through
// and reads the reply into (the reply view aliases it). Shared by every
// peer in the process — a fleet's rounds are mostly sequential.
type exchangeScratch struct {
	req, frame []byte
}

var scratchPool = sync.Pool{New: func() any { return new(exchangeScratch) }}

// Peer is one decentralized host: its own coordinate rows plus a
// bounded neighbor table. All methods are safe for concurrent use; the
// zero value is not usable — construct with New.
type Peer struct {
	cfg      Config
	sgd      solve.SGDOptions
	clamp    bool
	pool     *transport.Pool
	logger   *log.Logger
	metrics  *peerMetrics
	rdvPhase uint64

	mu    sync.Mutex
	x, y  []float64
	initX []float64
	initY []float64
	// table is the neighbor set, at most MaxNeighbors entries; its PRNG
	// is the peer's only one.
	table *table
	// px, py hold the partner's rows for one PeerStep and undo our own
	// rows from before it, x then y: scratch valid only while p.mu is
	// held.
	px, py, undo []float64
	round        uint64
	churn        uint64
	// lastStep is the most recent relative step magnitude — the
	// telemetry drift signal per exchange.
	lastStep float64
}

// New builds a Peer. Coordinates initialize to seeded random values
// scaled so initial estimates land near initRTT.
func New(cfg Config) (*Peer, error) {
	cfg = cfg.withDefaults()
	if cfg.Self == "" {
		return nil, fmt.Errorf("peer: Config.Self is required")
	}
	if cfg.Dialer == nil || cfg.Pinger == nil {
		return nil, fmt.Errorf("peer: Config.Dialer and Config.Pinger are required")
	}
	if cfg.Dim < 1 {
		return nil, fmt.Errorf("peer: dimension %d out of range", cfg.Dim)
	}
	sgd, err := cfg.SGD.Normalize()
	if err != nil {
		return nil, err
	}
	poolCfg := cfg.Pool
	poolCfg.Dialer = cfg.Dialer
	pool, err := transport.NewPool(poolCfg)
	if err != nil {
		return nil, err
	}
	p := &Peer{
		cfg:   cfg,
		sgd:   sgd,
		clamp: cfg.Algorithm == core.NMF,
		pool:  pool,
		table: newTable(cfg.MaxNeighbors, cfg.Seed),
	}
	if cfg.Logger != nil {
		p.logger = cfg.Logger
	}
	// A stable per-peer phase staggers periodic announcements across a
	// fleet instead of stampeding the directory every Nth round.
	h := fnv.New32a()
	h.Write([]byte(cfg.Self))
	p.rdvPhase = uint64(h.Sum32()) % rendezvousEvery
	// Random nonnegative init: entries in [0.5s, 1.5s] with s chosen so
	// x·y ≈ dim·s² ≈ initRTT. The Kaczmarz-normalized step makes Rate
	// unitless, so the scale only needs to be plausible, not precise.
	s := math.Sqrt(initRTT / float64(cfg.Dim))
	p.x = make([]float64, cfg.Dim)
	p.y = make([]float64, cfg.Dim)
	p.px = make([]float64, cfg.Dim)
	p.py = make([]float64, cfg.Dim)
	p.undo = make([]float64, 2*cfg.Dim)
	for k := 0; k < cfg.Dim; k++ {
		p.x[k] = s * (0.5 + p.table.rng.Float64())
		p.y[k] = s * (0.5 + p.table.rng.Float64())
	}
	p.initX = append([]float64(nil), p.x...)
	p.initY = append([]float64(nil), p.y...)
	p.metrics = newPeerMetrics(cfg.Metrics, p)
	return p, nil
}

// Close releases the transport pool. The serve loop is stopped by
// cancelling the context passed to Serve.
func (p *Peer) Close() error { return p.pool.Close() }

// Self returns the peer's own address.
func (p *Peer) Self() string { return p.cfg.Self }

// Coordinates returns copies of the peer's current rows (x, y).
func (p *Peer) Coordinates() (out, in []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]float64(nil), p.x...), append([]float64(nil), p.y...)
}

// AddNeighbor seeds the neighbor table with an address (no coordinates
// yet). Used for static bootstrap when no rendezvous is configured.
func (p *Peer) AddNeighbor(addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.observeLocked([]byte(addr), nil, nil)
}

// Neighbors returns the current neighbor addresses in table order.
func (p *Peer) Neighbors() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.table.addrs()
}

// Stats is a point-in-time snapshot of the gossip loop.
type Stats struct {
	// Round counts gossip rounds started.
	Round uint64
	// Neighbors is the current table size.
	Neighbors int
	// Churn counts neighbors dropped after failed exchanges.
	Churn uint64
	// LastStep is the relative step magnitude of the latest applied
	// update — near zero once the coordinates have converged.
	LastStep float64
}

// Stats returns a snapshot of the gossip loop's counters.
func (p *Peer) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{Round: p.round, Neighbors: len(p.table.entries), Churn: p.churn, LastStep: p.lastStep}
}

// GossipRound runs one round: refresh the table from a rendezvous when
// due (or when empty), pick a random neighbor, measure RTT, exchange
// coordinates, and apply the symmetric DMFSGD step. A failed partner is
// dropped from the table (churn); the error is returned so drivers can
// count failures, but a loop should keep calling.
func (p *Peer) GossipRound(ctx context.Context) error {
	p.mu.Lock()
	p.round++
	round := p.round
	rdvDue := len(p.cfg.RendezvousAddrs) > 0 &&
		(len(p.table.entries) == 0 || round%rendezvousEvery == p.rdvPhase)
	p.mu.Unlock()
	p.metrics.round()
	if rdvDue {
		if err := p.Announce(ctx); err != nil {
			p.metrics.failure()
			p.logf("announce: %v", err)
		}
	}
	p.mu.Lock()
	if len(p.table.entries) == 0 {
		p.mu.Unlock()
		return ErrNoNeighbors
	}
	target := p.table.entries[p.table.pick()].addr
	p.mu.Unlock()
	return p.exchangeWith(ctx, target)
}

// Announce registers this peer with one rendezvous directory (rotating
// through the configured ones) and merges the returned warm peer sample
// into the neighbor table. No measurement is taken and no step applied.
func (p *Peer) Announce(ctx context.Context) error {
	if len(p.cfg.RendezvousAddrs) == 0 {
		return fmt.Errorf("peer: no rendezvous configured")
	}
	p.mu.Lock()
	addr := p.cfg.RendezvousAddrs[int(p.round)%len(p.cfg.RendezvousAddrs)]
	p.mu.Unlock()
	sc := scratchPool.Get().(*exchangeScratch)
	defer scratchPool.Put(sc)
	rep, err := p.call(ctx, sc, addr, -1, p.cfg.SampleSize)
	if err != nil {
		return fmt.Errorf("peer: rendezvous %s: %w", addr, err)
	}
	p.mu.Lock()
	p.observeSampleLocked(rep.Peers)
	p.mu.Unlock()
	return nil
}

// call runs one GossipExchange against addr through sc: the request is
// encoded straight from live state — our rows, the measured RTT (or -1
// for none), a sample of up to k neighbors — and the returned view
// aliases sc, valid until sc goes back to the pool.
func (p *Peer) call(ctx context.Context, sc *exchangeScratch, addr string, rttMillis float64, k int) (wire.GossipReplyView, error) {
	p.mu.Lock()
	req := wire.GossipExchange{
		From:      p.cfg.Self,
		Out:       p.x,
		In:        p.y,
		RTTMillis: rttMillis,
		Peers:     p.table.sample(k, addr),
	}
	sc.req = req.Encode(sc.req[:0])
	p.mu.Unlock()
	respT, resp, frame, err := p.pool.CallInto(ctx, addr, wire.TypeGossipExchange, sc.req, sc.frame)
	sc.frame = frame
	if err != nil {
		// Error frames land here too: CallInto returns them as *wire.Error.
		return wire.GossipReplyView{}, err
	}
	if respT != wire.TypeGossipReply {
		return wire.GossipReplyView{}, fmt.Errorf("unexpected response type %v", respT)
	}
	return wire.ParseGossipReply(resp)
}

// exchangeWith runs the measure + exchange + step half-round against
// one partner.
func (p *Peer) exchangeWith(ctx context.Context, target string) error {
	rtt, err := p.cfg.Pinger.Ping(ctx, target, pingSamples)
	if err != nil {
		p.dropNeighbor(target)
		p.metrics.failure()
		return fmt.Errorf("peer: ping %s: %w", target, err)
	}
	ms := float64(rtt) / float64(time.Millisecond)
	sc := scratchPool.Get().(*exchangeScratch)
	defer scratchPool.Put(sc)
	rep, err := p.call(ctx, sc, target, ms, p.cfg.SampleSize)
	if err != nil {
		p.dropNeighbor(target)
		p.metrics.failure()
		return fmt.Errorf("peer: exchange with %s: %w", target, err)
	}
	p.mu.Lock()
	if p.usable(rep.Out, rep.In) {
		// rep carries the partner's pre-step rows, so this step and the
		// partner's own (against our pre-step rows) commute.
		p.stepLocked(rep.Out, rep.In, ms)
		p.observeLocked([]byte(target), rep.Out, rep.In)
	}
	p.observeSampleLocked(rep.Peers)
	p.mu.Unlock()
	p.metrics.exchange("out")
	return nil
}

// EstimateLocal predicts the RTT to addr from cached coordinates,
// reporting false when none are cached — no network traffic.
func (p *Peer) EstimateLocal(addr string) (float64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	out, in := p.table.rows(addr)
	if len(out) == 0 {
		return 0, false
	}
	return solve.PeerEstimate(p.x, p.y, out, in), true
}

// Estimate predicts the RTT to addr: from cached coordinates when
// available, otherwise by fetching the target's rows with a single
// measurement-free exchange — still no central server involved.
func (p *Peer) Estimate(ctx context.Context, addr string) (float64, error) {
	if est, ok := p.EstimateLocal(addr); ok {
		return est, nil
	}
	sc := scratchPool.Get().(*exchangeScratch)
	defer scratchPool.Put(sc)
	rep, err := p.call(ctx, sc, addr, -1, 0)
	if err != nil {
		return 0, fmt.Errorf("peer: fetch coordinates from %s: %w", addr, err)
	}
	if !p.usable(rep.Out, rep.In) {
		return 0, fmt.Errorf("peer: %s has no usable coordinates (dim %d vs %d, or not finite)", addr, rep.Out.Len(), p.cfg.Dim)
	}
	p.mu.Lock()
	p.observeLocked([]byte(addr), rep.Out, rep.In)
	rep.Out.CopyTo(p.px)
	rep.In.CopyTo(p.py)
	est := solve.PeerEstimate(p.x, p.y, p.px, p.py)
	p.mu.Unlock()
	return est, nil
}

// usable reports whether a partner's row pair can be stepped
// against or estimated from: this deployment's dimension, every element
// finite.
func (p *Peer) usable(out, in wire.Floats) bool {
	return out.Len() == p.cfg.Dim && in.Len() == p.cfg.Dim && out.Finite() && in.Finite()
}

// observeLocked is table.observe behind the peer's own two filters: its
// own address is never its neighbor, and rows of another dimension
// count as none. Callers hold p.mu.
func (p *Peer) observeLocked(addr []byte, out, in wire.Floats) string {
	if string(addr) == p.cfg.Self {
		return ""
	}
	if out.Len() != p.cfg.Dim || in.Len() != p.cfg.Dim {
		out, in = nil, nil
	}
	return p.table.observe(addr, out, in)
}

// observeSampleLocked merges a received peer sample into the table.
// Callers hold p.mu.
func (p *Peer) observeSampleLocked(s wire.PeerSample) {
	for addr, out, in, ok := s.Next(); ok; addr, out, in, ok = s.Next() {
		p.observeLocked(addr, out, in)
	}
}

// dropNeighbor removes a failed partner and counts the churn.
func (p *Peer) dropNeighbor(addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.table.drop(addr) {
		p.churn++
		p.metrics.churn()
	}
}

// stepLocked folds one measured RTT to a partner holding rows (out, in)
// into our own rows and reports whether it did: a step that does not
// come out finite — finite rows or an RTT absurd enough to overflow the
// products — is undone. When it reports true, p.undo holds the rows we
// had before it. Callers hold p.mu and have checked usable(out, in).
func (p *Peer) stepLocked(out, in wire.Floats, ms float64) bool {
	out.CopyTo(p.px)
	in.CopyTo(p.py)
	copy(p.undo, p.x)
	copy(p.undo[len(p.x):], p.y)
	// A finite relative magnitude means every new element is finite.
	step := solve.PeerStep(p.x, p.y, p.px, p.py, ms, p.sgd, p.clamp)
	if math.IsNaN(step) || math.IsInf(step, 0) {
		copy(p.x, p.undo)
		copy(p.y, p.undo[len(p.x):])
		return false
	}
	p.lastStep = step
	p.metrics.step(step)
	return true
}

// driftLocked reports the relative L2 displacement of the rows from
// their random initialization — how far gossip has carried this peer.
func (p *Peer) driftLocked() float64 {
	var num, den float64
	for k := range p.x {
		dx := p.x[k] - p.initX[k]
		dy := p.y[k] - p.initY[k]
		num += dx*dx + dy*dy
		den += p.initX[k]*p.initX[k] + p.initY[k]*p.initY[k]
	}
	return math.Sqrt(num) / (math.Sqrt(den) + 1e-9)
}

func (p *Peer) logf(format string, args ...any) {
	if p.logger != nil {
		p.logger.Printf("peer %s: "+format, append([]any{p.cfg.Self}, args...)...)
	}
}
