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
		ex, err := wire.ParseGossipExchange(payload)
		if err != nil {
			return wire.AppendError(dst, wire.CodeBadRequest, err.Error())
		}
		return wire.TypeGossipReply, r.handleAnnounce(ex, dst)
	default:
		return wire.AppendError(dst, wire.CodeUnavailable,
			"rendezvous server: only peer discovery is served here (Ping, GossipExchange)")
	}
}

// handleAnnounce records the announcing peer and appends the reply, a
// warm sample, to dst. The announce is read in place: only an address new
// to the directory and the rows it keeps are copied out of the frame. The
// reply carries no coordinates of its own (a rendezvous has none) and
// never applies a step, whatever RTTMillis says — the directory is not a
// gossip partner. It is encoded under the lock because the sample aliases
// rows the next announce overwrites in place.
func (r *rendezvous) handleAnnounce(ex wire.GossipExchangeView, dst []byte) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(ex.From) != 0 {
		r.observeLocked(ex.From, ex.Out, ex.In)
		r.announces.Inc()
	}
	// Entries riding along in the announce seed the directory too —
	// a fresh directory warms up from the first few announcing peers'
	// neighbor tables instead of one at a time.
	for addr, out, in, ok := ex.Peers.Next(); ok; addr, out, in, ok = ex.Peers.Next() {
		r.observeLocked(addr, out, in)
	}
	rep := wire.GossipReply{Peers: r.sampleLocked(ex.From)}
	return rep.Encode(dst)
}

func (r *rendezvous) observeLocked(addr []byte, out, in wire.Floats) {
	if len(addr) == 0 || !vectorsSane(out) || !vectorsSane(in) {
		return
	}
	e := r.entries[string(addr)]
	if e == nil {
		if len(r.order) >= r.capacity {
			r.evictLocked(r.rng.Intn(len(r.order)))
			r.evictions.Inc()
		}
		e = &rdvEntry{}
		key := string(addr)
		r.entries[key] = e
		r.order = append(r.order, key)
	}
	// Empty rows never overwrite known ones.
	if out.Len() > 0 && in.Len() > 0 {
		e.out, e.in = storeRow(e.out, out), storeRow(e.in, in)
	}
}

// storeRow decodes v into dst's storage, growing it when it is short.
func storeRow(dst []float64, v wire.Floats) []float64 {
	if cap(dst) < v.Len() {
		dst = make([]float64, v.Len())
	}
	dst = dst[:v.Len()]
	v.CopyTo(dst)
	return dst
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
func (r *rendezvous) sampleLocked(exclude []byte) []wire.LandmarkVec {
	if len(r.order) == 0 {
		return nil
	}
	k := r.sample
	seen := make(map[string]bool, k)
	out := make([]wire.LandmarkVec, 0, k)
	for attempts := 0; len(out) < k && attempts < 2*k; attempts++ {
		addr := r.order[r.rng.Intn(len(r.order))]
		if addr == string(exclude) || seen[addr] {
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
func vectorsSane(v wire.Floats) bool {
	for i := 0; i < v.Len(); i++ {
		if f := v.At(i); math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}
