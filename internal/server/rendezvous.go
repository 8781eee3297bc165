package server

import (
	"math"
	"math/rand"
	"sync"

	"github.com/ides-go/ides/internal/telemetry"
	"github.com/ides-go/ides/internal/wire"
)

// rendezvous is the RoleRendezvous dispatch target: a bounded directory
// of announced peers and their last coordinate rows. It is the only
// piece of server state that role runs — no model, no landmark set, no
// query engine. Peers announce with a GossipExchange (RTTMillis < 0, no
// step requested) and get back a warm random sample of other peers to
// gossip with; the directory is advisory, so losing it on restart only
// slows bootstrap, never breaks estimation.
type rendezvous struct {
	capacity int
	sample   int

	mu      sync.Mutex
	entries map[string]*rdvEntry
	order   []string // entry keys; rng indexes into it for sampling/eviction
	rng     *rand.Rand

	announces *telemetry.Counter
	evictions *telemetry.Counter
}

// rdvEntry is one announced peer: its last coordinate rows (possibly
// empty).
type rdvEntry struct {
	out, in []float64
}

func newRendezvous(cfg Config) *rendezvous {
	r := &rendezvous{
		capacity: cfg.RendezvousCapacity,
		sample:   cfg.RendezvousSample,
		entries:  make(map[string]*rdvEntry),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
	if r.capacity <= 0 {
		r.capacity = 65536
	}
	if r.sample <= 0 {
		r.sample = 8
	}
	r.announces = cfg.Metrics.Counter("ides_rendezvous_announces_total",
		"Peer announcements accepted by the rendezvous directory.")
	r.evictions = cfg.Metrics.Counter("ides_rendezvous_evictions_total",
		"Directory entries evicted to stay within capacity.")
	cfg.Metrics.GaugeFunc("ides_rendezvous_peers",
		"Peers currently in the rendezvous directory.", func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(len(r.order))
		})
	return r
}

// dispatch is the whole protocol surface of a rendezvous server: Ping
// for liveness and RTT measurement, GossipExchange for announcements.
// Every model or query request is refused with CodeUnavailable so
// misdirected clients fail with a clear message instead of a hang.
func (r *rendezvous) dispatch(t wire.MsgType, payload, dst []byte) (wire.MsgType, []byte) {
	switch t {
	case wire.TypePing:
		tok, err := wire.PingToken(payload)
		if err != nil {
			return wire.AppendError(dst, wire.CodeBadRequest, err.Error())
		}
		pong := wire.Pong{Token: tok}
		return wire.TypePong, pong.Encode(dst)
	case wire.TypeGossipExchange:
		ex, err := wire.DecodeGossipExchange(payload)
		if err != nil {
			return wire.AppendError(dst, wire.CodeBadRequest, err.Error())
		}
		rep := r.handleAnnounce(ex)
		return wire.TypeGossipReply, rep.Encode(dst)
	default:
		return wire.AppendError(dst, wire.CodeUnavailable,
			"rendezvous server: only peer discovery is served here (Ping, GossipExchange)")
	}
}

// handleAnnounce records the announcing peer and answers with a warm
// sample. The reply carries no coordinates of its own (a rendezvous has
// none) and never applies a step, whatever RTTMillis says — the
// directory is not a gossip partner.
func (r *rendezvous) handleAnnounce(ex *wire.GossipExchange) *wire.GossipReply {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ex.From != "" {
		r.observeLocked(ex.From, ex.Out, ex.In)
		r.announces.Inc()
	}
	// Entries riding along in the announce seed the directory too —
	// a fresh directory warms up from the first few announcing peers'
	// neighbor tables instead of one at a time.
	for _, p := range ex.Peers {
		r.observeLocked(p.Addr, p.Out, p.In)
	}
	return &wire.GossipReply{Peers: r.sampleLocked(ex.From)}
}

func (r *rendezvous) observeLocked(addr string, out, in []float64) {
	if addr == "" || !vectorsSane(out) || !vectorsSane(in) {
		return
	}
	if e := r.entries[addr]; e != nil {
		if len(out) > 0 && len(in) > 0 {
			e.out, e.in = out, in
		}
		return
	}
	if len(r.order) >= r.capacity {
		r.evictLocked(r.rng.Intn(len(r.order)))
		r.evictions.Inc()
	}
	e := &rdvEntry{}
	if len(out) > 0 && len(in) > 0 {
		e.out, e.in = out, in
	}
	r.entries[addr] = e
	r.order = append(r.order, addr)
}

func (r *rendezvous) evictLocked(i int) {
	addr := r.order[i]
	last := len(r.order) - 1
	r.order[i] = r.order[last]
	r.order = r.order[:last]
	delete(r.entries, addr)
}

// sampleLocked draws up to r.sample distinct entries, excluding the
// asker itself.
func (r *rendezvous) sampleLocked(exclude string) []wire.LandmarkVec {
	if len(r.order) == 0 {
		return nil
	}
	k := r.sample
	seen := make(map[string]bool, k)
	out := make([]wire.LandmarkVec, 0, k)
	for attempts := 0; len(out) < k && attempts < 2*k; attempts++ {
		addr := r.order[r.rng.Intn(len(r.order))]
		if addr == exclude || seen[addr] {
			continue
		}
		seen[addr] = true
		e := r.entries[addr]
		out = append(out, wire.LandmarkVec{Addr: addr, Out: e.out, In: e.in})
	}
	return out
}

// vectorsSane rejects rows carrying non-finite values: one hostile
// announce must not poison every peer the directory later hands the
// rows to.
func vectorsSane(v []float64) bool {
	for _, f := range v {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}
