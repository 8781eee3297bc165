package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ides-go/ides/internal/telemetry"
	"github.com/ides-go/ides/internal/wire"
)

// This file is the one frame server: accept loop, per-connection idle and
// request budgets, v1 lockstep request/response, and the Hello-negotiated
// v2 multiplexed session. The information server, the gossip peer, the
// rendezvous directory and the landmark echo all serve through it and
// differ only in their Handler.

// Handler answers one request other than Ping, which Serve answers
// itself, appending the response payload to dst. It
// owns dst for the duration of the call and must return a slice based on
// it (possibly grown), so the connection recycles one buffer across
// requests. The returned payload must not alias the request payload: on
// multiplexed connections the read scratch is reused before the response
// is framed. Handlers run concurrently, across connections and — with
// more than one worker — across the streams of one connection.
type Handler func(t wire.MsgType, payload, dst []byte) (wire.MsgType, []byte)

// ServeConfig parameterizes Serve.
type ServeConfig struct {
	Handler Handler
	// IdleTimeout covers only the wait for a request's first bytes
	// (pooled clients keep connections open between calls);
	// RequestTimeout covers everything after — the rest of the frame
	// (armed by RequestConn as soon as data arrives, so a slow-loris
	// trickler cannot stretch one request over the idle budget), then
	// dispatch and the response write. Conflating them would either kill
	// pooled idle connections after one request budget or let a stalled
	// reader or writer hold the connection for the whole idle budget.
	// Defaults: 30s, and ten times RequestTimeout but at least 5 minutes.
	RequestTimeout, IdleTimeout time.Duration
	// Window caps concurrently open streams per multiplexed connection.
	// It is advertised in the HelloAck, and a client that exceeds it
	// anyway gets CodeOverloaded on the excess streams — backpressure,
	// not teardown. Default 256, capped at 65535 (stream IDs carry a
	// 16-bit slot).
	Window int
	// Workers bounds concurrent dispatch per multiplexed connection;
	// frames past it queue. Default 2×GOMAXPROCS, minimum 4.
	Workers int
	// Takeover, when set, sees every lockstep request before the
	// handler; returning true means it consumed the connection (the
	// replication Subscribe stream) and the loop is done with it.
	// Multiplexed streams never reach it: completion-order response
	// writes cannot carry a strictly ordered stream.
	Takeover func(ctx context.Context, conn net.Conn, t wire.MsgType, payload []byte) bool
	// Metrics is optional; a nil sink costs one nil check per event.
	Metrics *ServeMetrics
	// Logf receives connection-level diagnostics (failed reads and
	// writes). Required; pass a no-op to discard them.
	Logf func(format string, args ...any)
}

// Serve accepts and serves connections on ln until ctx is cancelled or
// the listener fails. Cancellation closes ln and every live connection;
// Serve returns only after all of them have finished.
func Serve(ctx context.Context, ln net.Listener, cfg ServeConfig) error {
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = max(10*cfg.RequestTimeout, 5*time.Minute)
	}
	if cfg.Window <= 0 {
		cfg.Window = 256
	}
	cfg.Window = min(cfg.Window, 65535)
	if cfg.Workers <= 0 {
		cfg.Workers = max(4, 2*runtime.GOMAXPROCS(0))
	}
	// One cancellation hook for the listener and every connection: a
	// hook per connection would register each one in ctx, which a fleet
	// of peers in one process shares between all their serve loops. It
	// stays armed until the last connection has finished, so a listener
	// failure leaves the survivors cancellable.
	live := liveConns{conns: make(map[net.Conn]struct{})}
	stop := context.AfterFunc(ctx, func() {
		ln.Close()
		live.closeAll()
	})
	defer stop()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("transport: accept: %w", err)
		}
		if !live.add(conn) {
			// Accepted while the hook was running.
			conn.Close()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer live.remove(conn)
			cfg.serveConn(ctx, conn)
		}()
	}
}

// liveConns is the set of connections one Serve call is serving, so
// cancellation can close them all.
type liveConns struct {
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// add records c, reporting false — c is not recorded — once closeAll
// has run.
func (l *liveConns) add(c net.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.conns[c] = struct{}{}
	return true
}

func (l *liveConns) remove(c net.Conn) {
	l.mu.Lock()
	delete(l.conns, c)
	l.mu.Unlock()
}

// closeAll closes every recorded connection and refuses later ones.
func (l *liveConns) closeAll() {
	l.mu.Lock()
	l.closed = true
	for c := range l.conns {
		c.Close()
	}
	l.mu.Unlock()
}

// connState is the memory one connection works in. The read scratch, the
// response payload and the outgoing frame persist across requests and are
// only ever re-sliced, which makes the steady-state request loop
// allocation-free; the buffered reader coalesces the header and payload
// of small frames into one kernel read, and AppendFrame + a single Write
// sends the response in one syscall. The whole state is recycled across
// connections because dial-per-call clients (a gossip exchange, a
// TCPPinger probe) put connection set-up on their operation path.
type connState struct {
	rc                         RequestConn
	br                         *bufio.Reader
	readBuf, respBuf, frameBuf []byte
}

var connStatePool = sync.Pool{New: func() any {
	st := new(connState)
	st.br = bufio.NewReaderSize(&st.rc, 4096)
	return st
}}

// release returns st to the pool, dropping the connection and any buffer
// a large frame grew past the retention cap.
func (st *connState) release() {
	st.rc.Conn = nil
	for _, b := range []*[]byte{&st.readBuf, &st.respBuf, &st.frameBuf} {
		if cap(*b) > arenaMaxRetainBytes {
			*b = nil
		}
	}
	connStatePool.Put(st)
}

// serveConn runs one connection in lockstep until it closes, is taken
// over, or upgrades to a multiplexed session. Cancelling ctx does not
// unblock it; closing conn does, which is Serve's job.
func (cfg *ServeConfig) serveConn(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	cfg.Metrics.conns(1)
	defer cfg.Metrics.conns(-1)
	st := connStatePool.Get().(*connState)
	defer st.release()
	st.rc = RequestConn{Conn: conn, Budget: cfg.RequestTimeout}
	st.br.Reset(&st.rc)
	counted := false
	for {
		if err := conn.SetDeadline(time.Now().Add(cfg.IdleTimeout)); err != nil {
			return
		}
		st.rc.Rearm()
		t, payload, scratch, err := wire.ReadFrameInto(st.br, st.readBuf)
		st.readBuf = scratch
		if err != nil {
			if err != io.EOF && ctx.Err() == nil {
				cfg.Logf("read from %v: %v", conn.RemoteAddr(), err)
			}
			return
		}
		if err := conn.SetDeadline(time.Now().Add(cfg.RequestTimeout)); err != nil {
			return
		}
		var respT wire.MsgType
		if t == wire.TypeHello {
			if window, ok := cfg.negotiate(payload); ok {
				ack := wire.HelloAck{Version: wire.VersionMux, MaxInflight: uint32(window)}
				st.frameBuf = wire.AppendFrame(st.frameBuf[:0], wire.TypeHelloAck, ack.Encode(st.respBuf[:0]))
				if _, err := conn.Write(st.frameBuf); err != nil {
					return
				}
				// Only now is the connection a negotiated v2 session;
				// counting any earlier would record rejected Hellos.
				cfg.Metrics.connProtocol("v2")
				cfg.serveMux(ctx, conn, st, window)
				return
			}
			respT, st.respBuf = wire.AppendError(st.respBuf[:0], wire.CodeBadRequest, "malformed or downlevel Hello")
		} else {
			if !counted {
				cfg.Metrics.connProtocol("v1")
				counted = true
			}
			if cfg.Takeover != nil && cfg.Takeover(ctx, conn, t, payload) {
				return
			}
			respT, st.respBuf = cfg.handle(t, payload, st.respBuf[:0])
		}
		st.frameBuf = wire.AppendFrame(st.frameBuf[:0], respT, st.respBuf)
		if _, err := conn.Write(st.frameBuf); err != nil {
			cfg.Logf("write to %v: %v", conn.RemoteAddr(), err)
			return
		}
	}
}

// handle runs the handler under the request instruments. A Ping never
// reaches the handler: every server answers it here, so anything that
// can be dialed can be measured.
func (cfg *ServeConfig) handle(t wire.MsgType, payload, dst []byte) (wire.MsgType, []byte) {
	h := cfg.Handler
	if t == wire.TypePing {
		h = pong
	}
	if cfg.Metrics == nil {
		return h(t, payload, dst)
	}
	start := time.Now()
	respT, resp := h(t, payload, dst)
	cfg.Metrics.observeRequest(t, time.Since(start))
	return respT, resp
}

// pong is the Handler for Ping: the Pong echoing its token.
func pong(_ wire.MsgType, payload, dst []byte) (wire.MsgType, []byte) {
	tok, err := wire.PingToken(payload)
	if err != nil {
		return wire.AppendError(dst, wire.CodeBadRequest, err.Error())
	}
	return wire.TypePong, (&wire.Pong{Token: tok}).Encode(dst)
}

// negotiate parses a Hello and returns the effective stream window: the
// smaller of both sides' caps. The comparison stays in the wire's
// unsigned space — Window is clamped to [1, 65535], so a hostile
// MaxInflight >= 2^31 negotiates down to it rather than turning negative
// through a narrowing cast.
func (cfg *ServeConfig) negotiate(payload []byte) (int32, bool) {
	hello, err := wire.DecodeHello(payload)
	if err != nil || hello.MaxVersion < wire.VersionMux {
		return 0, false
	}
	window := uint32(cfg.Window)
	if hello.MaxInflight > 0 && hello.MaxInflight < window {
		window = hello.MaxInflight
	}
	return int32(window), true
}

// muxWork carries one in-flight request through a worker. The request
// bytes are copied out of the connection's read scratch — the read loop
// reuses that scratch for the next frame immediately — and req/resp are
// recycled with the struct through muxWorkPool.
type muxWork struct {
	t      wire.MsgType
	stream uint32
	req    []byte
	resp   []byte
}

var muxWorkPool = sync.Pool{New: func() any { return new(muxWork) }}

// muxSession drives one multiplexed connection: the read loop fans
// frames out to a bounded set of dispatch workers, and a writer
// goroutine flushes completed responses — tagged by stream ID, in
// completion order — batching everything queued since the last flush
// into a single Write.
type muxSession struct {
	cfg  *ServeConfig
	conn net.Conn

	// inflight counts streams accepted but not yet answered; the read
	// loop rejects new streams past the negotiated window.
	inflight atomic.Int32

	// out queues completed response frames for the writer goroutine;
	// writerDone closes when it has exited.
	out        *frameBatch
	writerDone chan struct{}

	// workCh hands requests to workers. It is buffered to the stream
	// window so the read loop never blocks handing work off — a burst of
	// frames queues up and a single worker drains it in one scheduling
	// quantum instead of paying a goroutine switch per request. idle
	// counts workers parked in receive; submit spawns another worker (up
	// to cfg.Workers) only when none is parked, so slow handlers get
	// concurrency and fast ones stay on one hot worker. The read loop is
	// the sole sender.
	workCh  chan *muxWork
	idle    atomic.Int32
	workers int
	wg      sync.WaitGroup
}

// serveMux runs a connection in multiplexed mode until it closes, reading
// through the lockstep loop's state.
func (cfg *ServeConfig) serveMux(ctx context.Context, conn net.Conn, st *connState, window int32) {
	rc, br := &st.rc, st.br
	m := &muxSession{cfg: cfg, conn: conn, out: newFrameBatch(), writerDone: make(chan struct{})}
	m.workCh = make(chan *muxWork, window)
	go m.writeLoop()
	defer m.shutdown()
	for {
		// Same budget split as the lockstep loop, but dispatch is
		// asynchronous here, so the request budget bounds only the frame;
		// in-flight handlers bound themselves. Only the read deadline is
		// armed — responses flush concurrently with this wait, and the
		// writer manages its own write deadline.
		if err := conn.SetReadDeadline(time.Now().Add(cfg.IdleTimeout)); err != nil {
			return
		}
		rc.Rearm()
		buffered, delivered := br.Buffered(), rc.BytesRead()
		t, stream, payload, scratch, err := wire.ReadMuxFrameInto(br, st.readBuf)
		st.readBuf = scratch
		if err != nil {
			// A quiet client with streams still in flight is not idle:
			// tearing down here would drop the pending responses. Extend
			// the wait — but only for a pure idle timeout, where the
			// parser consumed nothing (a timeout mid-frame has lost the
			// partial bytes and cannot resume framing).
			consumed := buffered + int(rc.BytesRead()-delivered) - br.Buffered()
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && consumed == 0 && m.inflight.Load() > 0 {
				continue
			}
			if err != io.EOF && ctx.Err() == nil {
				cfg.Logf("mux read from %v: %v", conn.RemoteAddr(), err)
			}
			return
		}
		if m.inflight.Load() >= window {
			// Answered without consuming a worker: the overload path must
			// stay cheap when the window is blown.
			cfg.Metrics.muxOverloadReject()
			_, p := wire.AppendError(nil, wire.CodeOverloaded, "too many in-flight streams on this connection")
			m.out.add(wire.TypeError, stream, p)
			continue
		}
		w := muxWorkPool.Get().(*muxWork)
		w.t, w.stream = t, stream
		w.req = append(w.req[:0], payload...)
		m.inflight.Add(1)
		cfg.Metrics.streams(1)
		// Only the read loop sends, so shutdown's close(workCh) cannot
		// race a send; the buffer covers the window, so it never blocks.
		if m.idle.Load() == 0 && m.workers < cfg.Workers {
			m.workers++
			m.wg.Add(1)
			go m.worker()
		}
		m.workCh <- w
	}
}

// worker dispatches requests until the session shuts down.
func (m *muxSession) worker() {
	defer m.wg.Done()
	for {
		m.idle.Add(1)
		w, ok := <-m.workCh
		m.idle.Add(-1)
		if !ok {
			return
		}
		respT, resp := m.cfg.handle(w.t, w.req, w.resp[:0])
		w.resp = resp
		// The window slot is free before the response can reach the client:
		// one that sends its next request on seeing this reply must not be
		// told the window is full.
		m.inflight.Add(-1)
		m.cfg.Metrics.streams(-1)
		// Refused only once the session has closed: the peer is gone.
		m.out.add(respT, w.stream, resp)
		if cap(w.req) > arenaMaxRetainBytes {
			w.req = nil
		}
		if cap(w.resp) > arenaMaxRetainBytes {
			w.resp = nil
		}
		muxWorkPool.Put(w)
	}
}

// writeLoop flushes batched response frames with single Writes until the
// session closes (flushing any tail first) or a write fails.
func (m *muxSession) writeLoop() {
	defer close(m.writerDone)
	var buf []byte
	for {
		var frames int
		var ok bool
		if buf, frames, ok = m.out.take(buf); !ok {
			return
		}
		// The read loop only arms the read deadline; each flush bounds
		// itself so a peer that stops draining cannot park the writer
		// (and the batch memory behind it) forever.
		m.conn.SetWriteDeadline(time.Now().Add(m.cfg.RequestTimeout)) //nolint:errcheck // a dead conn fails the Write below
		_, err := m.conn.Write(buf)
		if frames > 1 {
			m.cfg.Metrics.observeCoalesced(frames)
		}
		if err != nil {
			m.out.close(true)
			// Kill the socket so the read loop notices and shuts down.
			m.conn.Close()
			return
		}
	}
}

// shutdown runs when the read loop exits: workers drain the queued
// requests, then the writer flushes their responses (if the socket still
// works) and exits.
func (m *muxSession) shutdown() {
	close(m.workCh)
	m.wg.Wait()
	m.out.close(false)
	<-m.writerDone
}

// ServeMetrics bundles the frame server's instruments. Every method is a
// no-op on a nil receiver except observeRequest, whose one caller checks
// for nil itself so that it can skip the clock reads too. The family
// names predate the shared core and say "server"; dashboards and the
// bench read them by name.
type ServeMetrics struct {
	requests     *telemetry.CounterVec
	reqSeconds   *telemetry.HistogramVec
	activeConns  *telemetry.Gauge
	muxStreams   *telemetry.Gauge
	muxCoalesced *telemetry.Counter
	muxOverload  *telemetry.Counter
	protocols    *telemetry.CounterVec
}

// NewServeMetrics registers the frame-server families on reg; a nil
// registry yields the nil (disabled) sink.
func NewServeMetrics(reg *telemetry.Registry) *ServeMetrics {
	if reg == nil {
		return nil
	}
	return &ServeMetrics{
		requests: reg.CounterVec("ides_server_requests_total",
			"Requests dispatched, by wire message type.", "type"),
		reqSeconds: reg.HistogramVec("ides_server_request_seconds",
			"Request handling latency, by wire message type.", "type", nil),
		activeConns: reg.Gauge("ides_server_active_conns",
			"Connections currently being served."),
		muxStreams: reg.Gauge("ides_mux_streams_inflight",
			"Streams currently in flight across multiplexed connections."),
		muxCoalesced: reg.Counter("ides_mux_frames_coalesced_total",
			"Response frames that shared a socket write with at least one other frame."),
		muxOverload: reg.Counter("ides_mux_overload_rejects_total",
			"Streams rejected with CodeOverloaded for exceeding the per-connection in-flight cap."),
		protocols: reg.CounterVec("ides_transport_protocol",
			"Connections served, by negotiated framing version (v1 lockstep, v2 multiplexed).", "version"),
	}
}

// conns and streams move the live-connection and in-flight-stream gauges.
func (m *ServeMetrics) conns(delta float64) {
	if m != nil {
		m.activeConns.Add(delta)
	}
}

func (m *ServeMetrics) streams(delta float64) {
	if m != nil {
		m.muxStreams.Add(delta)
	}
}

// observeCoalesced records the frames of one multi-frame flush.
func (m *ServeMetrics) observeCoalesced(frames int) {
	if m != nil {
		m.muxCoalesced.Add(uint64(frames))
	}
}

func (m *ServeMetrics) muxOverloadReject() {
	if m != nil {
		m.muxOverload.Inc()
	}
}

// connProtocol records which framing version a connection negotiated.
func (m *ServeMetrics) connProtocol(version string) {
	if m != nil {
		m.protocols.With(version).Inc()
	}
}

func (m *ServeMetrics) observeRequest(t wire.MsgType, d time.Duration) {
	name := t.String()
	m.requests.With(name).Inc()
	m.reqSeconds.With(name).ObserveDuration(d)
}
