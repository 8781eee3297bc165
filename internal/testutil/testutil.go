// Package testutil holds the network test helpers that were once
// copy-pasted across the transport, client and server test suites:
// loopback listeners, a minimal wire echo server, accept-counting and
// connection-tracking listener wrappers, and a stub pinger. It imports
// only net and wire, so every internal package's tests can use it
// without import cycles.
package testutil

import (
	"bufio"
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/wire"
)

// Loopback returns a TCP listener on an ephemeral 127.0.0.1 port,
// closed automatically when the test ends.
func Loopback(t testing.TB) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// EchoServer answers Ping with Pong and GetInfo with a fixed Info on
// every connection accepted from ln; other types, Hello included, get a
// wire error. It runs until the listener closes.
func EchoServer(t testing.TB, ln net.Listener) {
	t.Helper()
	go echo(ln, false, 0)
}

// MuxEchoServer answers like EchoServer but speaks the v2 multiplexed
// framing: a Hello upgrades the connection (HelloAck echoes the client's
// window, capped at maxInflight when positive), after which each request
// is answered on its own stream once every byte received so far is read,
// and a stream past the window at once with CodeOverloaded, as
// transport.Serve does. Requests before a Hello are answered in v1
// lockstep. It runs until the listener closes.
func MuxEchoServer(t testing.TB, ln net.Listener, maxInflight int) {
	t.Helper()
	go echo(ln, true, maxInflight)
}

// echo serves each connection accepted from ln until the listener closes.
func echo(ln net.Listener, mux bool, maxInflight int) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go echoConn(conn, mux, maxInflight)
	}
}

// echoAnswer is the echo servers' reply to one request.
func echoAnswer(typ wire.MsgType, payload []byte) (wire.MsgType, []byte) {
	switch typ {
	case wire.TypePing:
		p, err := wire.DecodePing(payload)
		if err != nil {
			return wire.AppendError(nil, wire.CodeBadRequest, err.Error())
		}
		return wire.TypePong, (&wire.Pong{Token: p.Token}).Encode(nil)
	case wire.TypeGetInfo:
		return wire.TypeInfo, (&wire.Info{Dim: 10, NumLandmarks: 20, Algorithm: "SVD", ModelReady: true}).Encode(nil)
	default:
		return wire.AppendError(nil, wire.CodeUnknownType, "nope")
	}
}

// echoConn answers c in lockstep until, when mux is set, a Hello
// upgrades it.
func echoConn(c net.Conn, mux bool, maxInflight int) {
	defer c.Close()
	br := bufio.NewReader(c)
	for {
		typ, payload, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		if mux && typ == wire.TypeHello {
			hello, err := wire.DecodeHello(payload)
			if err != nil {
				return
			}
			window := hello.MaxInflight
			if maxInflight > 0 {
				window = min(window, uint32(maxInflight))
			}
			ack := wire.HelloAck{Version: wire.VersionMux, MaxInflight: window}
			if err := wire.WriteFrame(c, wire.TypeHelloAck, ack.Encode(nil)); err != nil {
				return
			}
			echoMux(c, br, window)
			return
		}
		if rt, rp := echoAnswer(typ, payload); wire.WriteFrame(c, rt, rp) != nil {
			return
		}
	}
}

// echoMux answers the streams of an upgraded connection.
func echoMux(c net.Conn, br *bufio.Reader, window uint32) {
	var buf []byte
	var wmu sync.Mutex
	var inflight atomic.Int64
	// Replies wait on release, which is closed and replaced whenever the
	// read loop has drained what arrived.
	release := make(chan struct{})
	defer func() { close(release) }()
	for {
		if br.Buffered() == 0 {
			close(release)
			release = make(chan struct{})
		}
		typ, stream, payload, scratch, err := wire.ReadMuxFrameInto(br, buf)
		buf = scratch
		if err != nil {
			return
		}
		if inflight.Load() >= int64(window) {
			_, p := wire.AppendError(nil, wire.CodeOverloaded, "too many in-flight streams on this connection")
			wmu.Lock()
			c.Write(wire.AppendMuxFrame(nil, wire.TypeError, stream, p)) //nolint:errcheck
			wmu.Unlock()
			continue
		}
		inflight.Add(1)
		rt, rp := echoAnswer(typ, payload)
		// Concurrent writes interleave replies like Serve's completion order.
		go func(release <-chan struct{}) {
			<-release
			wmu.Lock()
			defer wmu.Unlock()
			// Freed before the client can see the reply, as in Serve.
			inflight.Add(-1)
			c.Write(wire.AppendMuxFrame(nil, rt, stream, rp)) //nolint:errcheck
		}(release)
	}
}

// CountingListener wraps a listener and counts accepted connections,
// so tests can prove pooled transports reuse connections instead of
// dialing per call.
type CountingListener struct {
	net.Listener
	accepts atomic.Int64
}

// Accept implements net.Listener.
func (l *CountingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// Accepts returns how many connections have been accepted.
func (l *CountingListener) Accepts() int64 { return l.accepts.Load() }

// CountingEcho starts an EchoServer behind a CountingListener on a
// fresh loopback port and returns the listener and its address.
func CountingEcho(t testing.TB) (*CountingListener, string) {
	t.Helper()
	ln := &CountingListener{Listener: Loopback(t)}
	EchoServer(t, ln)
	return ln, ln.Addr().String()
}

// TrackingListener records accepted connections so tests can sever
// them mid-call.
type TrackingListener struct {
	net.Listener

	mu    sync.Mutex
	conns []net.Conn
}

// Accept implements net.Listener.
func (l *TrackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

// CloseConns closes every connection accepted so far and returns how
// many were severed.
func (l *TrackingListener) CloseConns() int {
	l.mu.Lock()
	conns := l.conns
	l.conns = nil
	l.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return len(conns)
}

// StubPinger reports a fixed RTT for any address — for tests whose
// "landmarks" are names rather than dialable endpoints.
type StubPinger struct{ RTT time.Duration }

// Ping implements transport.Pinger.
func (p StubPinger) Ping(context.Context, string, int) (time.Duration, error) {
	return p.RTT, nil
}
