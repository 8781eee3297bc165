package server

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/landmark"
	"github.com/ides-go/ides/internal/peer"
	"github.com/ides-go/ides/internal/telemetry"
	"github.com/ides-go/ides/internal/testutil"
	"github.com/ides-go/ides/internal/transport"
	"github.com/ides-go/ides/internal/wire"
)

// This file is the frame-server conformance table: every Test below is
// one row, run against all three services that serve through
// transport.Serve — the information server, the gossip peer and the
// landmark echo — over loopback TCP. A row that passes on one service
// and fails on another means a service stopped being a thin adapter.

// frameService is one running service under test.
type frameService struct {
	name string
	addr string
	// window is the stream cap the service's HelloAck advertises.
	window uint32
	// slow, when non-zero, is a request whose handler parks for the
	// service's RequestTimeout and then answers Error{slowCode}. Only the
	// server has one (GetModel on a follower that never received a
	// model); the peer's and the echo's handlers cannot block, so rows
	// that need a stream held in flight run on the server alone, and
	// transport's own TestServeConn* cases hold streams with a gated
	// handler for the mechanism all three share.
	slow     wire.MsgType
	slowCode uint16
	// reg is the registry the service counts connections on, nil when
	// the service exports no frame-server metrics.
	reg *telemetry.Registry
	// cancel stops Serve; done closes once it has returned err.
	cancel context.CancelFunc
	done   chan struct{}
	err    error
}

// startServices runs the three services on loopback listeners with the
// given budgets. Each is stopped (and waited for) when the test ends.
func startServices(t *testing.T, request, idle time.Duration) []*frameService {
	t.Helper()
	dialer := &net.Dialer{}
	reg := telemetry.NewRegistry()
	s, err := New(Config{
		Role:           RoleFollower,
		LeaderAddr:     "127.0.0.1:1",
		Dim:            2,
		RequestTimeout: request,
		IdleTimeout:    idle,
		Metrics:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	p, err := peer.New(peer.Config{
		Self:           "peer",
		Dialer:         dialer,
		Pinger:         &transport.TCPPinger{Dialer: dialer},
		RequestTimeout: request,
		IdleTimeout:    idle,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	a, err := landmark.New(landmark.Config{
		Self:            "lm",
		Server:          "unused",
		Dialer:          dialer,
		Pinger:          &transport.TCPPinger{Dialer: dialer},
		Timeout:         request,
		EchoIdleTimeout: idle,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	svcs := []*frameService{
		{name: "server", window: 256, slow: wire.TypeGetModel, slowCode: wire.CodeModelNotFit, reg: reg},
		{name: "peer", window: 64},
		{name: "echo", window: 256},
	}
	for i, serve := range []func(context.Context, net.Listener) error{s.Serve, p.Serve, a.ServeEcho} {
		svc := svcs[i]
		ln := testutil.Loopback(t)
		ctx, cancel := context.WithCancel(context.Background())
		svc.addr, svc.cancel, svc.done = ln.Addr().String(), cancel, make(chan struct{})
		go func() {
			defer close(svc.done)
			svc.err = serve(ctx, ln)
		}()
		t.Cleanup(func() {
			cancel()
			select {
			case <-svc.done:
			case <-time.After(10 * time.Second):
				t.Errorf("%s: Serve did not return after cancel", svc.name)
			}
		})
	}
	return svcs
}

// eachService runs row against every service as a subtest.
func eachService(t *testing.T, request, idle time.Duration, row func(t *testing.T, svc *frameService)) {
	for _, svc := range startServices(t, request, idle) {
		t.Run(svc.name, func(t *testing.T) { row(t, svc) })
	}
}

func dialTCP(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	return conn
}

// muxHandshake dials addr and upgrades the connection to v2 framing,
// returning the raw conn and the negotiated window.
func muxHandshake(t *testing.T, addr string, want uint32) (net.Conn, uint32) {
	t.Helper()
	conn := dialTCP(t, addr)
	hello := wire.Hello{MaxVersion: wire.VersionMux, MaxInflight: want}
	if err := wire.WriteFrame(conn, wire.TypeHello, hello.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.TypeHelloAck {
		t.Fatalf("handshake answered %v, want HelloAck", typ)
	}
	ack, err := wire.DecodeHelloAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Version != wire.VersionMux {
		t.Fatalf("negotiated version %d, want %d", ack.Version, wire.VersionMux)
	}
	return conn, ack.MaxInflight
}

// readMuxReply reads one v2 frame and returns its stream and decoded
// error (nil when the frame is not an Error).
func readMuxReply(t *testing.T, conn net.Conn) (wire.MsgType, uint32, *wire.Error) {
	t.Helper()
	typ, stream, payload, _, err := wire.ReadMuxFrameInto(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.TypeError {
		return typ, stream, nil
	}
	werr, err := wire.DecodeError(payload)
	if err != nil {
		t.Fatal(err)
	}
	return typ, stream, werr
}

func muxPing(stream uint32) []byte {
	return wire.AppendMuxFrame(nil, wire.TypePing, stream, (&wire.Ping{Token: uint64(stream)}).Encode(nil))
}

// expectMuxPong writes a Ping on stream and expects its Pong — the check
// that a connection is still serving.
func expectMuxPong(t *testing.T, conn net.Conn, stream uint32) {
	t.Helper()
	if _, err := conn.Write(muxPing(stream)); err != nil {
		t.Fatal(err)
	}
	if typ, got, werr := readMuxReply(t, conn); typ != wire.TypePong || got != stream || werr != nil {
		t.Fatalf("ping on stream %d answered type %v stream %d err %v", stream, typ, got, werr)
	}
}

// TestMuxHandshakeNegotiatesWindow checks the HelloAck echoes the smaller
// of the client's wish and the service's cap, and that the upgraded
// connection answers a concurrent burst, each reply on its own stream.
func TestMuxHandshakeNegotiatesWindow(t *testing.T) {
	eachService(t, 2*time.Second, 30*time.Second, func(t *testing.T, svc *frameService) {
		if _, window := muxHandshake(t, svc.addr, 3); window != 3 {
			t.Fatalf("negotiated window %d, want the client's 3", window)
		}
		conn, window := muxHandshake(t, svc.addr, 1<<20)
		if window != svc.window {
			t.Fatalf("negotiated window %d, want the service cap %d", window, svc.window)
		}
		var frame []byte
		for i := uint32(1); i <= 4; i++ {
			frame = append(frame, muxPing(i)...)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		seen := map[uint32]bool{}
		for i := 0; i < 4; i++ {
			typ, stream, werr := readMuxReply(t, conn)
			if werr != nil || typ != wire.TypePong {
				t.Fatalf("stream %d answered %v %v", stream, typ, werr)
			}
			if seen[stream] {
				t.Fatalf("stream %d answered twice", stream)
			}
			seen[stream] = true
		}
	})
}

// TestMuxHandshakeHostileWindow sends Hello.MaxInflight values at and
// past the int32 boundary: the negotiation must stay in unsigned space,
// clamp to the service cap, and keep serving — a 2^31 request once turned
// negative through a narrowing cast and crashed the server with a
// negative channel capacity.
func TestMuxHandshakeHostileWindow(t *testing.T) {
	eachService(t, 2*time.Second, 30*time.Second, func(t *testing.T, svc *frameService) {
		for _, hostile := range []uint32{1 << 31, math.MaxUint32} {
			conn, window := muxHandshake(t, svc.addr, hostile)
			if window != svc.window {
				t.Fatalf("MaxInflight %d negotiated window %d, want the service cap %d", hostile, window, svc.window)
			}
			expectMuxPong(t, conn, 1)
			conn.Close()
		}
	})
}

// TestMuxProtocolCountedAfterHandshake checks a rejected Hello is
// answered with BadRequest on a connection that stays in lockstep, and
// never shows up as a negotiated v2 connection in
// ides_transport_protocol — only a completed handshake counts.
func TestMuxProtocolCountedAfterHandshake(t *testing.T) {
	eachService(t, 2*time.Second, 30*time.Second, func(t *testing.T, svc *frameService) {
		v2 := func() float64 { return svc.reg.Export()[`ides_transport_protocol{version="v2"}`] }
		// A Hello body shorter than its fixed 5 bytes fails DecodeHello.
		conn := dialTCP(t, svc.addr)
		if err := wire.WriteFrame(conn, wire.TypeHello, []byte{1}); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := wire.ReadFrame(conn)
		if err != nil || typ != wire.TypeError {
			t.Fatalf("malformed hello answered %v, %v, want Error", typ, err)
		}
		if werr, err := wire.DecodeError(payload); err != nil || werr.Code != wire.CodeBadRequest {
			t.Fatalf("malformed hello error %v %v, want CodeBadRequest", werr, err)
		}
		if err := wire.WriteFrame(conn, wire.TypePing, (&wire.Ping{Token: 5}).Encode(nil)); err != nil {
			t.Fatal(err)
		}
		if typ, _, err := wire.ReadFrame(conn); err != nil || typ != wire.TypePong {
			t.Fatalf("lockstep ping after rejected hello: %v %v", typ, err)
		}
		conn.Close()
		if svc.reg != nil && v2() != 0 {
			t.Fatalf("rejected Hello counted as v2 connection: %v", v2())
		}
		// A completed handshake counts exactly once.
		muxHandshake(t, svc.addr, 8)
		if svc.reg != nil && v2() != 1 {
			t.Fatalf("negotiated v2 connections = %v, want 1", v2())
		}
	})
}

// TestMuxIdleExtendedWhileInflight runs a handler longer than the idle
// budget while the client stays silent: the session must not tear down
// an in-flight stream on an idle timeout — the read loop extends the
// wait until the window drains.
func TestMuxIdleExtendedWhileInflight(t *testing.T) {
	eachService(t, time.Second, 100*time.Millisecond, func(t *testing.T, svc *frameService) {
		if svc.slow == 0 {
			t.Skip("no handler of this service can hold a stream in flight; see frameService.slow")
		}
		conn, _ := muxHandshake(t, svc.addr, 8)
		if _, err := conn.Write(wire.AppendMuxFrame(nil, svc.slow, 1, nil)); err != nil {
			t.Fatal(err)
		}
		// The reply lands after ~RequestTimeout; a connection killed at the
		// first idle deadline would surface here as an unexpected EOF.
		_, stream, werr := readMuxReply(t, conn)
		if stream != 1 || werr == nil || werr.Code != svc.slowCode {
			t.Fatalf("reply: stream %d err %v, want code %d on stream 1", stream, werr, svc.slowCode)
		}
	})
}

// TestMuxOverloadRejectsStreamNotConn blows a negotiated in-flight
// window of 1 and checks only excess streams fail — with CodeOverloaded —
// while the connection itself survives and keeps serving.
func TestMuxOverloadRejectsStreamNotConn(t *testing.T) {
	eachService(t, time.Second, 30*time.Second, func(t *testing.T, svc *frameService) {
		conn, window := muxHandshake(t, svc.addr, 1)
		if window != 1 {
			t.Fatalf("negotiated window %d, want 1", window)
		}
		if svc.slow != 0 {
			// The slow request pins the window, so the Ping behind it is
			// rejected immediately, long before the slow answer arrives.
			frame := wire.AppendMuxFrame(nil, svc.slow, 1, nil)
			if _, err := conn.Write(append(frame, muxPing(2)...)); err != nil {
				t.Fatal(err)
			}
			typ, stream, werr := readMuxReply(t, conn)
			if stream != 2 || werr == nil || werr.Code != wire.CodeOverloaded {
				t.Fatalf("first reply: type %v stream %d err %v, want CodeOverloaded on stream 2", typ, stream, werr)
			}
			// The pinned stream still completes.
			_, stream, werr = readMuxReply(t, conn)
			if stream != 1 || werr == nil || werr.Code != svc.slowCode {
				t.Fatalf("second reply: stream %d err %v, want code %d on stream 1", stream, werr, svc.slowCode)
			}
		} else {
			// No handler can pin the window, so outrun it: the read loop
			// parses a burst out of one buffer far faster than a worker
			// wakes to answer the first Ping. Every stream is answered
			// exactly once, by its Pong or by CodeOverloaded.
			const burst = 256
			var frame []byte
			for i := uint32(1); i <= burst; i++ {
				frame = append(frame, muxPing(i)...)
			}
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			seen, overloaded := map[uint32]bool{}, 0
			for len(seen) < burst {
				typ, stream, werr := readMuxReply(t, conn)
				if seen[stream] {
					t.Fatalf("stream %d answered twice", stream)
				}
				seen[stream] = true
				switch {
				case werr != nil && werr.Code == wire.CodeOverloaded:
					overloaded++
				case typ != wire.TypePong:
					t.Fatalf("stream %d answered %v %v", stream, typ, werr)
				}
			}
			if overloaded == 0 {
				t.Fatalf("a %d-stream burst on a window of 1 rejected nothing", burst)
			}
		}
		expectMuxPong(t, conn, 1000)
	})
}

// TestServeUnknownTypeKeepsConn checks a type no service handles is
// answered with CodeUnknownType on both framings, and the connection
// keeps serving afterwards.
func TestServeUnknownTypeKeepsConn(t *testing.T) {
	const unknown = wire.MsgType(0x7f)
	eachService(t, 2*time.Second, 30*time.Second, func(t *testing.T, svc *frameService) {
		conn := dialTCP(t, svc.addr)
		if err := wire.WriteFrame(conn, unknown, []byte("x")); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := wire.ReadFrame(conn)
		if err != nil || typ != wire.TypeError {
			t.Fatalf("lockstep unknown type answered %v %v, want Error", typ, err)
		}
		if werr, err := wire.DecodeError(payload); err != nil || werr.Code != wire.CodeUnknownType {
			t.Fatalf("lockstep unknown type error %v %v, want CodeUnknownType", werr, err)
		}
		if err := wire.WriteFrame(conn, wire.TypePing, (&wire.Ping{Token: 1}).Encode(nil)); err != nil {
			t.Fatal(err)
		}
		if typ, _, err := wire.ReadFrame(conn); err != nil || typ != wire.TypePong {
			t.Fatalf("lockstep ping after unknown type: %v %v", typ, err)
		}

		mconn, _ := muxHandshake(t, svc.addr, 8)
		if _, err := mconn.Write(wire.AppendMuxFrame(nil, unknown, 1, nil)); err != nil {
			t.Fatal(err)
		}
		if _, stream, werr := readMuxReply(t, mconn); stream != 1 || werr == nil || werr.Code != wire.CodeUnknownType {
			t.Fatalf("mux unknown type: stream %d err %v, want CodeUnknownType on stream 1", stream, werr)
		}
		expectMuxPong(t, mconn, 2)
	})
}

// TestSlowRequestBoundedByRequestTimeout starts a frame and then stalls:
// the client must be dropped after RequestTimeout, not held for the whole
// (much longer) IdleTimeout — the idle budget covers only the wait for a
// request to start.
func TestSlowRequestBoundedByRequestTimeout(t *testing.T) {
	eachService(t, 150*time.Millisecond, 30*time.Second, func(t *testing.T, svc *frameService) {
		conn := dialTCP(t, svc.addr)
		if _, err := conn.Write([]byte{0x01}); err != nil { // first byte of a frame, then silence
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Fatal("service answered a half-sent frame")
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("half-sent frame held the connection for %v; want ~RequestTimeout", elapsed)
		}
	})
}

// TestServeCancelClosesConns checks cancelling Serve's context closes
// idle keep-alive connections — lockstep and multiplexed — rather than
// leaving them to their idle budget, and that Serve returns.
func TestServeCancelClosesConns(t *testing.T) {
	eachService(t, 2*time.Second, 30*time.Second, func(t *testing.T, svc *frameService) {
		lockstep := dialTCP(t, svc.addr)
		if err := wire.WriteFrame(lockstep, wire.TypePing, (&wire.Ping{Token: 1}).Encode(nil)); err != nil {
			t.Fatal(err)
		}
		if typ, _, err := wire.ReadFrame(lockstep); err != nil || typ != wire.TypePong {
			t.Fatalf("ping: %v %v", typ, err)
		}
		mux, _ := muxHandshake(t, svc.addr, 8)
		expectMuxPong(t, mux, 1)

		svc.cancel()
		select {
		case <-svc.done:
			if !errors.Is(svc.err, context.Canceled) {
				t.Fatalf("Serve returned %v, want context.Canceled", svc.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Serve did not return after cancel")
		}
		// Serve waited for its connections, so both are already closed.
		for name, conn := range map[string]net.Conn{"lockstep": lockstep, "mux": mux} {
			conn.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
			_, err := conn.Read(make([]byte, 1))
			var ne net.Error
			if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
				t.Fatalf("%s connection still open after Serve returned (read: %v)", name, err)
			}
		}
	})
}

// TestMuxConcurrentDispatch floods one mux connection from many writer
// goroutines and checks every stream gets exactly one correct answer —
// the concurrent-dispatch analogue of the lockstep pipelining test.
func TestMuxConcurrentDispatch(t *testing.T) {
	eachService(t, 2*time.Second, 30*time.Second, func(t *testing.T, svc *frameService) {
		conn, window := muxHandshake(t, svc.addr, 256)
		streams := min(window, 128)
		var wmu sync.Mutex
		var wg sync.WaitGroup
		for i := uint32(1); i <= streams; i++ {
			wg.Add(1)
			go func(i uint32) {
				defer wg.Done()
				frame := muxPing(i)
				wmu.Lock()
				defer wmu.Unlock()
				if _, err := conn.Write(frame); err != nil {
					t.Errorf("stream %d: %v", i, err)
				}
			}(i)
		}
		wg.Wait()
		var buf []byte
		seen := map[uint32]bool{}
		for uint32(len(seen)) < streams {
			typ, stream, payload, scratch, err := wire.ReadMuxFrameInto(conn, buf)
			buf = scratch
			if err != nil {
				t.Fatalf("after %d replies: %v", len(seen), err)
			}
			if typ != wire.TypePong {
				t.Fatalf("stream %d answered %v", stream, typ)
			}
			pong, err := wire.DecodePong(payload)
			if err != nil {
				t.Fatal(err)
			}
			if seen[stream] {
				t.Fatalf("stream %d answered twice", stream)
			}
			if pong.Token != uint64(stream) {
				t.Fatalf("stream %d got token %d: replies crossed streams", stream, pong.Token)
			}
			seen[stream] = true
		}
	})
}

// TestMuxRejectsSubscribe checks the replication stream cannot ride a
// multiplexed connection: the takeover hook is lockstep-only, so the
// stream is refused and the connection keeps serving. Server-only — no
// other service takes connections over.
func TestMuxRejectsSubscribe(t *testing.T) {
	s, err := New(Config{Landmarks: []string{"a", "b"}, Dim: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, _ := muxHandshake(t, serveTCP(t, s), 8)

	sub := wire.Subscribe{ID: "f1"}
	if _, err := conn.Write(wire.AppendMuxFrame(nil, wire.TypeSubscribe, 1, sub.Encode(nil))); err != nil {
		t.Fatal(err)
	}
	_, stream, werr := readMuxReply(t, conn)
	if stream != 1 || werr == nil || werr.Code != wire.CodeBadRequest {
		t.Fatalf("Subscribe on mux: stream %d err %v, want CodeBadRequest", stream, werr)
	}
	expectMuxPong(t, conn, 2)
}

// overLimitBatch is a well-formed QueryBatch naming n empty targets.
func overLimitBatch(n int) []byte {
	b := (&wire.QueryBatch{From: "h"}).Encode(nil)
	binary.BigEndian.PutUint32(b[len(b)-4:], uint32(n))
	return append(b, make([]byte, 2*n)...)
}

// TestOverLimitBatchRefusedAtHeader sends a QueryBatch naming one target
// more than the server's MaxBatch, on both framings: the server refuses
// it with CodeBadRequest and the limit in the message, the services that
// do not serve the type say so, and every connection keeps serving. The
// refusal is decided on the count field — the targets behind it are never
// materialized — so it costs the same few allocations however many the
// frame names.
func TestOverLimitBatchRefusedAtHeader(t *testing.T) {
	const limit = 100_000 // the server's default MaxBatch
	payload := overLimitBatch(limit + 1)
	eachService(t, 2*time.Second, 30*time.Second, func(t *testing.T, svc *frameService) {
		wantCode, wantMsg := wire.CodeUnknownType, ""
		if svc.name == "server" {
			wantCode, wantMsg = wire.CodeBadRequest, "batch names 100001 targets, limit 100000"
		}
		check := func(framing string, werr *wire.Error) {
			t.Helper()
			if werr == nil || werr.Code != wantCode || (wantMsg != "" && werr.Text != wantMsg) {
				t.Fatalf("%s: over-limit batch answered %+v, want code %d %q", framing, werr, wantCode, wantMsg)
			}
		}
		conn := dialTCP(t, svc.addr)
		if err := wire.WriteFrame(conn, wire.TypeQueryBatch, payload); err != nil {
			t.Fatal(err)
		}
		typ, reply, err := wire.ReadFrame(conn)
		if err != nil || typ != wire.TypeError {
			t.Fatalf("lockstep: over-limit batch answered %v %v, want Error", typ, err)
		}
		werr, err := wire.DecodeError(reply)
		if err != nil {
			t.Fatal(err)
		}
		check("lockstep", werr)
		if err := wire.WriteFrame(conn, wire.TypePing, (&wire.Ping{Token: 1}).Encode(nil)); err != nil {
			t.Fatal(err)
		}
		if typ, _, err := wire.ReadFrame(conn); err != nil || typ != wire.TypePong {
			t.Fatalf("lockstep ping after the refusal: %v %v", typ, err)
		}

		mconn, _ := muxHandshake(t, svc.addr, 8)
		if _, err := mconn.Write(wire.AppendMuxFrame(nil, wire.TypeQueryBatch, 1, payload)); err != nil {
			t.Fatal(err)
		}
		_, stream, werr := readMuxReply(t, mconn)
		if stream != 1 {
			t.Fatalf("mux: refusal on stream %d, want 1", stream)
		}
		check("mux", werr)
		expectMuxPong(t, mconn, 2)
	})

	if testutil.RaceEnabled {
		return // allocation accounting changes under -race
	}
	s, err := New(Config{Landmarks: []string{"L1", "L2"}, Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var dst []byte
	refusal := func(payload []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			var typ wire.MsgType
			if typ, dst = s.dispatchTo(wire.TypeQueryBatch, payload, dst[:0]); typ != wire.TypeError {
				t.Fatalf("over-limit batch answered %v", typ)
			}
		})
	}
	small, large := refusal(payload), refusal(overLimitBatch(10*limit))
	t.Logf("refusing %d targets: %.0f allocs; %d targets: %.0f allocs", limit+1, small, 10*limit, large)
	if small != large || small > 8 {
		t.Fatalf("refusal allocates %.0f times for %d targets and %.0f for %d; want the same small constant",
			small, limit+1, large, 10*limit)
	}
}
