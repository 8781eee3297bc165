package peer

import (
	"context"
	"math"
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
// listener fails, through the shared frame server: Ping/Pong for RTT
// measurement, GossipExchange for coordinate exchange, and the
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
	switch t {
	case wire.TypePing:
		tok, err := wire.PingToken(payload)
		if err != nil {
			return wire.AppendError(dst, wire.CodeBadRequest, err.Error())
		}
		return wire.TypePong, (&wire.Pong{Token: tok}).Encode(dst)
	case wire.TypeGossipExchange:
		return p.handleExchange(payload, dst)
	default:
		return wire.AppendError(dst, wire.CodeUnknownType, "peer: unsupported message type "+t.String())
	}
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
	// NaN fails the >= 0 check; infinities are rejected explicitly — a
	// hostile frame must not inject a non-finite measurement.
	applied := ex.RTTMillis >= 0 && !math.IsInf(ex.RTTMillis, 1) &&
		ex.Out.Len() == p.cfg.Dim && ex.In.Len() == p.cfg.Dim
	// Encoded before the step: PeerStep mutates p.x/p.y in place below,
	// and the reply must carry the pre-step rows.
	dst = wire.AppendGossipReplyRows(dst, applied, p.x, p.y)
	if applied {
		ex.Out.CopyTo(p.px)
		ex.In.CopyTo(p.py)
		step := solve.PeerStep(p.x, p.y, p.px, p.py, ex.RTTMillis, p.sgd, p.clamp)
		p.noteStepLocked(step)
	}
	// The table's copy of the sender's address, taken now: merging the
	// sample can evict and recycle the entry it came from.
	from := p.observeViewLocked(ex.From, ex.Out, ex.In)
	p.observeSampleLocked(ex.Peers)
	dst = wire.AppendPeerSample(dst, p.sampleLocked(p.cfg.SampleSize, from))
	p.metrics.exchange("in")
	return wire.TypeGossipReply, dst
}
