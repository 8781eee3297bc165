package server

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/telemetry"
	"github.com/ides-go/ides/internal/wire"
)

// replicator is the leader side of the replication tier: a hub of
// subscribed followers, each fed every installed model and every
// accepted registration as the Model and RegisterHost frames a client
// already speaks. Publication never blocks on a slow follower — a
// subscriber whose send queue fills is dropped and resyncs from scratch
// on reconnect, which is always safe because a Model is self-contained
// and a registration is idempotent.
type replicator struct {
	qs *QueryService

	mu   sync.Mutex
	subs map[*subscriber]struct{}

	// framesSent counts frames, not writes: an initial sync batches 256
	// registrations to a write, and the follower counts each one.
	framesSent atomic.Uint64
	bytesSent  atomic.Uint64

	// lag, when metrics are enabled, exports each subscriber's publish
	// lag in revisions, labelled by the follower's self-reported ID.
	lag *telemetry.GaugeVec
}

// streamFrame is one queued frame. st is the generation a Model frame
// carries, nil for a registration.
type streamFrame struct {
	buf []byte
	st  *servedState
}

// subscriber is one follower's stream state. The serving goroutine owns
// the conn; publishers only touch ch and quit.
type subscriber struct {
	id   string
	ch   chan streamFrame
	quit chan struct{}
	once sync.Once
}

// modelAck is a stream's first frame when nothing has been fit yet: a
// Model at epoch 0 with no landmarks, which a follower skips.
var modelAck = wire.AppendFrame(nil, wire.TypeModel, (&wire.Model{}).Encode(nil))

// drop marks the subscriber dead; its serving goroutine tears the
// connection down and the follower resubscribes.
func (sb *subscriber) drop() { sb.once.Do(func() { close(sb.quit) }) }

func newReplicator(qs *QueryService) *replicator {
	return &replicator{qs: qs, subs: make(map[*subscriber]struct{})}
}

func (r *replicator) add(sb *subscriber) {
	r.mu.Lock()
	r.subs[sb] = struct{}{}
	r.mu.Unlock()
}

func (r *replicator) remove(sb *subscriber) {
	r.mu.Lock()
	delete(r.subs, sb)
	r.mu.Unlock()
	if r.lag != nil {
		r.lag.With(sb.id).Set(0)
	}
}

func (r *replicator) subscribers() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.subs)
}

// broadcast frames one message — st is the generation a Model carries,
// nil for a registration — and queues it for every subscriber, sharing
// the frame read-only. A subscriber too slow to drain its queue is
// dropped rather than letting it stall publication for everyone else.
func (r *replicator) broadcast(t wire.MsgType, payload []byte, st *servedState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.subs) == 0 {
		return
	}
	f := streamFrame{buf: wire.AppendFrame(nil, t, payload), st: st}
	for sb := range r.subs {
		select {
		case sb.ch <- f:
		default:
			sb.drop()
		}
	}
}

// publishModel streams a freshly installed generation to every follower.
// Runs on the refitter's loop goroutine right after the local install,
// so followers observe publications in install order.
func (r *replicator) publishModel(st *servedState) { r.broadcast(wire.TypeModel, st.model, st) }

// publishRegister streams one accepted registration's payload. Runs on
// the request goroutine that handled the RegisterHost, after the
// directory Put; the payload aliases that connection's read buffer, and
// broadcast frames — copies — it before this returns.
func (r *replicator) publishRegister(payload []byte) {
	r.broadcast(wire.TypeRegisterHost, payload, nil)
}

// lagRevs estimates how many revisions behind a stream whose last
// written Model was sent is: 0 when that is the served generation, the
// same-epoch revision distance otherwise, and the full distance-plus-one
// when the stream is still on an older epoch (a whole generation
// behind).
func (r *replicator) lagRevs(sent *servedState) float64 {
	cur := r.qs.served()
	switch {
	case cur == nil || sent == cur:
		return 0
	case sent != nil && sent.snap.Epoch == cur.snap.Epoch:
		return float64(cur.snap.Rev - sent.snap.Rev)
	}
	return float64(cur.snap.Rev + 1)
}

// serveSubscriber owns a follower connection after its Subscribe frame:
// initial sync (the served model, then the full directory in batches),
// then the live feed. Called from the frontend's connection goroutine.
func (s *Server) serveSubscriber(ctx context.Context, conn net.Conn, payload []byte) {
	sub, err := wire.DecodeSubscribe(payload)
	if err != nil {
		s.writeErrorFrame(conn, wire.CodeBadRequest, err.Error())
		return
	}
	if s.repl == nil {
		s.writeErrorFrame(conn, wire.CodeBadRequest, "followers do not accept replication subscribers")
		return
	}
	s.logf("follower %q subscribed from %v (at epoch %d rev %d)", sub.ID, conn.RemoteAddr(), sub.Epoch, sub.Rev)
	sb := &subscriber{
		id: sub.ID,
		// Room for a burst of registrations (or the ones racing the
		// initial sync) before a follower counts as too slow.
		ch:   make(chan streamFrame, 256),
		quit: make(chan struct{}),
	}
	s.repl.add(sb)
	defer s.repl.remove(sb)

	// Streaming mode: no more requests arrive, so the request/idle
	// deadlines give way to per-frame write deadlines.
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return
	}
	// The follower never writes after Subscribe; a blocked Read is the
	// cheapest dead-connection detector a one-way stream gets.
	connClosed := make(chan struct{})
	go func() {
		defer close(connClosed)
		var b [8]byte
		for {
			if _, err := conn.Read(b[:]); err != nil {
				return
			}
		}
	}()

	// sent is the last generation whose Model this stream wrote.
	var sent *servedState
	write := func(buf []byte, frames int, st *servedState) bool {
		if err := conn.SetWriteDeadline(time.Now().Add(s.cfg.RequestTimeout)); err != nil {
			return false
		}
		if _, err := conn.Write(buf); err != nil {
			s.logf("replication write to follower %q: %v", sub.ID, err)
			return false
		}
		s.repl.framesSent.Add(uint64(frames))
		s.repl.bytesSent.Add(uint64(len(buf)))
		if st != nil {
			sent = st
		}
		if s.repl.lag != nil {
			s.repl.lag.With(sb.id).Set(s.repl.lagRevs(sent))
		}
		return true
	}

	// Initial sync: the served model (or the bare ack when nothing has
	// been fit), then every live directory entry. Publications racing the
	// sync land in sb.ch and apply after it — possibly repeating a model
	// or a registration, never losing one; the follower skips a model it
	// already serves, and registrations are idempotent.
	st, first := s.qs.served(), modelAck
	if st != nil {
		first = wire.AppendFrame(nil, wire.TypeModel, st.model)
	}
	if !write(first, 1, st) || !s.syncDirectory(write) {
		return
	}

	for {
		select {
		case f := <-sb.ch:
			if !write(f.buf, 1, f.st) {
				return
			}
		case <-sb.quit:
			s.logf("follower %q dropped: send queue overflow", sub.ID)
			return
		case <-connClosed:
			return
		case <-ctx.Done():
			return
		}
	}
}

// syncDirectory streams the whole live directory as RegisterHost frames,
// 256 to a write, so n hosts cost ⌈n/256⌉ writes rather than n.
func (s *Server) syncDirectory(write func(buf []byte, frames int, st *servedState) bool) bool {
	const batch = 256
	var buf, payload []byte
	frames := 0
	flush := func() bool {
		if frames == 0 {
			return true
		}
		ok := write(buf, frames, nil)
		buf, frames = buf[:0], 0
		return ok
	}
	ok := true
	s.qs.dir.RangeEpoch(func(addr string, vec core.Vectors, epoch uint64) bool {
		payload = (&wire.RegisterHost{Addr: addr, Out: vec.Out, In: vec.In, Epoch: epoch}).Encode(payload[:0])
		buf = wire.AppendFrame(buf, wire.TypeRegisterHost, payload)
		if frames++; frames == batch {
			ok = flush()
		}
		return ok
	})
	return ok && flush()
}

// writeErrorFrame sends one error frame outside the request/response
// loop (the subscribe handshake path).
func (s *Server) writeErrorFrame(conn net.Conn, code uint16, text string) {
	_ = conn.SetWriteDeadline(time.Now().Add(s.cfg.RequestTimeout))
	e := wire.Error{Code: code, Text: text}
	frame := wire.AppendFrame(nil, wire.TypeError, e.Encode(nil))
	_, _ = conn.Write(frame)
}
