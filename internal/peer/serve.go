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
		ex, err := wire.DecodeGossipExchange(payload)
		if err != nil {
			return wire.AppendError(dst, wire.CodeBadRequest, err.Error())
		}
		return wire.TypeGossipReply, p.handleExchange(ex).Encode(dst)
	default:
		return wire.AppendError(dst, wire.CodeUnknownType, "peer: unsupported message type "+t.String())
	}
}

// handleExchange is the serving half of a gossip round: answer with
// this peer's pre-step rows, fold the partner's measurement into our
// own rows when one was taken, and merge the partner plus its sample
// into the neighbor table.
func (p *Peer) handleExchange(ex *wire.GossipExchange) *wire.GossipReply {
	p.mu.Lock()
	defer p.mu.Unlock()
	rep := &wire.GossipReply{
		// Copies, not aliases: PeerStep mutates p.x/p.y in place below,
		// and the reply must carry the pre-step rows.
		Out: append([]float64(nil), p.x...),
		In:  append([]float64(nil), p.y...),
	}
	// NaN fails the >= 0 check; infinities are rejected explicitly — a
	// hostile frame must not inject a non-finite measurement.
	if ex.RTTMillis >= 0 && !math.IsInf(ex.RTTMillis, 1) &&
		len(ex.Out) == p.cfg.Dim && len(ex.In) == p.cfg.Dim {
		step := solve.PeerStep(p.x, p.y, ex.Out, ex.In, ex.RTTMillis, p.sgd, p.clamp)
		p.noteStepLocked(step)
		rep.Applied = true
	}
	if len(ex.Out) == p.cfg.Dim && len(ex.In) == p.cfg.Dim {
		p.observeLocked(ex.From, ex.Out, ex.In)
	} else {
		p.observeLocked(ex.From, nil, nil)
	}
	for _, s := range ex.Peers {
		p.observeLocked(s.Addr, s.Out, s.In)
	}
	rep.Peers = p.sampleLocked(p.cfg.SampleSize, ex.From)
	p.metrics.exchange("in")
	return rep
}
