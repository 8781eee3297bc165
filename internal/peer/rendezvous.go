package peer

import (
	"context"
	"net"
	"sync"

	"github.com/ides-go/ides/internal/telemetry"
	"github.com/ides-go/ides/internal/transport"
	"github.com/ides-go/ides/internal/wire"
)

const (
	// rendezvousCapacity bounds the directory; a random entry is evicted
	// beyond it.
	rendezvousCapacity = 65536
	// rendezvousSample is how many warm peers answer an announce.
	rendezvousSample = 8
)

// Rendezvous is the bootstrap directory of the peer mode: a table of
// announced peers and their last coordinate rows, and nothing else — no
// rows of its own, no model, no queries. Peers announce with a
// GossipExchange (no step is ever applied, whatever RTTMillis says) and
// get back a warm random sample of other peers to gossip with. The
// directory is advisory: losing it on restart only slows bootstrap,
// never breaks estimation.
type Rendezvous struct {
	mu    sync.Mutex
	table *table

	announces *telemetry.Counter
	frames    *transport.ServeMetrics
}

// NewRendezvous builds an empty directory whose evictions and samples
// draw from seed. reg may be nil.
func NewRendezvous(seed int64, reg *telemetry.Registry) *Rendezvous {
	r := &Rendezvous{
		table:  newTable(rendezvousCapacity, seed),
		frames: transport.NewServeMetrics(reg),
	}
	r.announces = reg.Counter("ides_rendezvous_announces_total",
		"Peer announcements accepted by the rendezvous directory.")
	reg.CounterFunc("ides_rendezvous_evictions_total",
		"Directory entries evicted to stay within capacity.", func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(r.table.evictions)
		})
	reg.GaugeFunc("ides_rendezvous_peers",
		"Peers currently in the rendezvous directory.", func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(len(r.table.entries))
		})
	return r
}

// Serve answers announces on ln until ctx is cancelled or the listener
// fails, through the shared frame server like Peer.Serve. cfg carries
// the caller's timeouts and Logf; its Handler and Metrics are the
// directory's own.
func (r *Rendezvous) Serve(ctx context.Context, ln net.Listener, cfg transport.ServeConfig) error {
	cfg.Handler, cfg.Metrics = r.dispatch, r.frames
	return transport.Serve(ctx, ln, cfg)
}

// dispatch is the whole protocol surface beside the frame server's
// Ping: GossipExchange for announcements. Every model or query request
// is refused with CodeUnavailable so misdirected clients fail with a
// clear message instead of a hang.
func (r *Rendezvous) dispatch(t wire.MsgType, payload, dst []byte) (wire.MsgType, []byte) {
	if t != wire.TypeGossipExchange {
		return wire.AppendError(dst, wire.CodeUnavailable,
			"rendezvous server: only peer discovery is served here (Ping, GossipExchange)")
	}
	ex, err := wire.ParseGossipExchange(payload)
	if err != nil {
		return wire.AppendError(dst, wire.CodeBadRequest, err.Error())
	}
	// Locked through the encode: the sample aliases rows the next
	// announce overwrites in place.
	r.mu.Lock()
	defer r.mu.Unlock()
	// The table's copy of the announcer's address, taken now: the entries
	// riding along can evict and recycle the entry it came from.
	from := r.table.observe(ex.From, ex.Out, ex.In)
	if from != "" {
		r.announces.Inc()
	}
	// Those entries seed the directory too — a fresh one warms up from
	// the first few announcers' neighbor tables instead of one peer at a
	// time.
	for addr, out, in, ok := ex.Peers.Next(); ok; addr, out, in, ok = ex.Peers.Next() {
		r.table.observe(addr, out, in)
	}
	rep := wire.GossipReply{Peers: r.table.sample(rendezvousSample, from)}
	return wire.TypeGossipReply, rep.Encode(dst)
}
