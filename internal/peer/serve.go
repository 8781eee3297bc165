package peer

import (
	"context"
	"net"

	"github.com/ides-go/ides/internal/solve"
	"github.com/ides-go/ides/internal/transport"
	"github.com/ides-go/ides/internal/wire"
)

// muxWindow caps concurrent streams a gossip peer advertises. Gossip
// exchanges are tiny and the peer dispatches them sequentially, so the
// window only needs to cover pipelining depth, not parallelism.
const muxWindow = 64

// Serve answers gossip traffic on ln until ctx is cancelled or the
// listener fails, through the shared frame server: its Ping/Pong for
// RTT measurement, GossipExchange for coordinate exchange, and the
// Hello/HelloAck upgrade to multiplexed framing that transport.Pool
// probes for. Cancellation closes every connection, and Serve returns
// once they have finished. One worker per connection keeps exchanges
// sequential — a peer's rows are one shared resource, so there is
// nothing to parallelize.
func (p *Peer) Serve(ctx context.Context, ln net.Listener) error {
	return transport.Serve(ctx, ln, transport.ServeConfig{
		Handler:        p.dispatch,
		RequestTimeout: p.cfg.RequestTimeout,
		IdleTimeout:    p.cfg.IdleTimeout,
		Window:         muxWindow,
		Workers:        1,
		Logf:           p.logf,
	})
}

// dispatch answers one request frame, appending the response to dst.
func (p *Peer) dispatch(t wire.MsgType, payload, dst []byte) (wire.MsgType, []byte) {
	if t != wire.TypeGossipExchange {
		return wire.AppendError(dst, wire.CodeUnknownType, "peer: unsupported message type "+t.String())
	}
	return p.handleExchange(payload, dst)
}

// handleExchange is the serving half of a gossip round: answer with
// this peer's pre-step rows, fold the partner's measurement into our
// own rows when one was taken, and merge the partner plus its sample
// into the neighbor table. The request is read in place and the reply
// encoded into dst piece by piece as the state it describes is reached.
func (p *Peer) handleExchange(payload, dst []byte) (wire.MsgType, []byte) {
	ex, err := wire.ParseGossipExchange(payload)
	if err != nil {
		return wire.AppendError(dst, wire.CodeBadRequest, err.Error())
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// A negative RTT is an announce or fetch. A hostile frame must inject
	// neither an RTT ValidRTT refuses nor rows PeerStep would spread.
	applied := solve.ValidRTT(ex.RTTMillis) && p.usable(ex.Out, ex.In) &&
		p.stepLocked(ex.Out, ex.In, ex.RTTMillis)
	// The reply carries the pre-step rows, which a step moved to p.undo.
	x, y := p.x, p.y
	if applied {
		x, y = p.undo[:len(x)], p.undo[len(x):]
	}
	dst = wire.AppendGossipReplyRows(dst, applied, x, y)
	// The table's copy of the sender's address, taken now: merging the
	// sample can evict and recycle the entry it came from.
	from := p.observeLocked(ex.From, ex.Out, ex.In)
	p.observeSampleLocked(ex.Peers)
	dst = wire.AppendPeerSample(dst, p.table.sample(p.cfg.SampleSize, from))
	p.metrics.exchange("in")
	return wire.TypeGossipReply, dst
}
