package transport

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/testutil"
	"github.com/ides-go/ides/internal/wire"
)

// The cross-service rows live in internal/server/mux_test.go. These
// cases cover what only a handler that blocks on demand can show, which
// no shipped service has: a stream held in flight for as long as the
// test wants.

// heldType is the request the test handlers answer, with a Pong echoing
// its payload: any type but Ping, which Serve answers before a handler
// could hold it.
const heldType = wire.TypeGetInfo

// gatedHandler echoes heldType; every call announces itself on entered
// and then parks until release is closed.
type gatedHandler struct {
	entered chan struct{}
	release chan struct{}
}

func newGatedHandler() *gatedHandler {
	return &gatedHandler{entered: make(chan struct{}, 16), release: make(chan struct{})}
}

func (g *gatedHandler) handle(t wire.MsgType, payload, dst []byte) (wire.MsgType, []byte) {
	g.entered <- struct{}{}
	<-g.release
	return echoHandler(t, payload, dst)
}

func echoHandler(t wire.MsgType, payload, dst []byte) (wire.MsgType, []byte) {
	if t != heldType {
		return wire.AppendError(dst, wire.CodeUnknownType, "echo only")
	}
	return wire.TypePong, append(dst, payload...)
}

// startServe runs Serve on a loopback listener and returns its address,
// its cancel func and a channel closed when it has returned.
func startServe(t *testing.T, cfg ServeConfig) (string, context.CancelFunc, <-chan struct{}) {
	t.Helper()
	cfg.Logf = t.Logf
	ln := testutil.Loopback(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		Serve(ctx, ln, cfg) //nolint:errcheck
	}()
	t.Cleanup(func() { cancel(); <-done })
	return ln.Addr().String(), cancel, done
}

func dialMux(t *testing.T, addr string, window uint32) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	hello := wire.Hello{MaxVersion: wire.VersionMux, MaxInflight: window}
	if err := wire.WriteFrame(conn, wire.TypeHello, hello.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wire.ReadFrame(conn); err != nil || typ != wire.TypeHelloAck {
		t.Fatalf("handshake: %v %v", typ, err)
	}
	return conn
}

func muxHeldFrame(stream uint32) []byte {
	return wire.AppendMuxFrame(nil, heldType, stream, (&wire.Ping{Token: uint64(stream)}).Encode(nil))
}

// readMux reads one v2 frame, returning its type, stream and — for an
// Error frame — its code.
func readMux(t *testing.T, conn net.Conn) (wire.MsgType, uint32, uint16) {
	t.Helper()
	typ, stream, payload, _, err := wire.ReadMuxFrameInto(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.TypeError {
		return typ, stream, 0
	}
	werr, err := wire.DecodeError(payload)
	if err != nil {
		t.Fatal(err)
	}
	return typ, stream, werr.Code
}

// TestServeWaitsForInflightHandler cancels Serve while a handler is
// parked: the connection is closed at once, but Serve must not return
// until the handler has.
func TestServeWaitsForInflightHandler(t *testing.T) {
	g := newGatedHandler()
	addr, cancel, done := startServe(t, ServeConfig{
		Handler: g.handle, RequestTimeout: 5 * time.Second, IdleTimeout: 30 * time.Second,
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, heldType, (&wire.Ping{Token: 1}).Encode(nil)); err != nil {
		t.Fatal(err)
	}
	<-g.entered
	cancel()
	select {
	case <-done:
		t.Fatal("Serve returned while a handler was still running")
	case <-time.After(100 * time.Millisecond):
	}
	close(g.release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return once the handler finished")
	}
}

// TestServeConnIdleExtendedWhileInflight holds one stream through many
// idle windows on a silent connection: its response must still arrive,
// and only then may the idle budget close the connection.
func TestServeConnIdleExtendedWhileInflight(t *testing.T) {
	g := newGatedHandler()
	addr, _, _ := startServe(t, ServeConfig{
		Handler: g.handle, RequestTimeout: 5 * time.Second, IdleTimeout: 30 * time.Millisecond,
	})
	conn := dialMux(t, addr, 8)
	if _, err := conn.Write(muxHeldFrame(1)); err != nil {
		t.Fatal(err)
	}
	<-g.entered
	time.Sleep(300 * time.Millisecond) // ten idle windows
	close(g.release)
	if typ, stream, _ := readMux(t, conn); typ != wire.TypePong || stream != 1 {
		t.Fatalf("held stream answered %v on stream %d, want Pong on 1", typ, stream)
	}
	if _, _, _, _, err := wire.ReadMuxFrameInto(conn, nil); err != io.EOF {
		t.Fatalf("drained connection not closed at its idle budget: %v", err)
	}
}

// TestServeConnOverloadWhileWindowPinned pins a window of two with
// parked handlers: the third stream is refused at once with
// CodeOverloaded, the pinned streams complete, and the connection keeps
// serving.
func TestServeConnOverloadWhileWindowPinned(t *testing.T) {
	g := newGatedHandler()
	addr, _, _ := startServe(t, ServeConfig{
		Handler: g.handle, RequestTimeout: 5 * time.Second, IdleTimeout: 30 * time.Second, Workers: 2,
	})
	conn := dialMux(t, addr, 2)
	// One at a time: a frame that arrives while the only worker is parked
	// in receive with an earlier frame still queued for it does not spawn
	// a second worker (the rule that keeps a burst on one hot worker), so
	// two frames in one write could both land on the worker that is about
	// to block for good.
	for s := uint32(1); s <= 2; s++ {
		if _, err := conn.Write(muxHeldFrame(s)); err != nil {
			t.Fatal(err)
		}
		<-g.entered
	}
	if _, err := conn.Write(muxHeldFrame(3)); err != nil {
		t.Fatal(err)
	}
	if typ, stream, code := readMux(t, conn); typ != wire.TypeError || stream != 3 || code != wire.CodeOverloaded {
		t.Fatalf("over-window stream: type %v stream %d code %d, want CodeOverloaded on 3", typ, stream, code)
	}
	close(g.release)
	seen := map[uint32]bool{}
	for i := 0; i < 2; i++ {
		typ, stream, _ := readMux(t, conn)
		if typ != wire.TypePong || seen[stream] {
			t.Fatalf("pinned stream %d answered %v (seen %v)", stream, typ, seen)
		}
		seen[stream] = true
	}
	if _, err := conn.Write(muxHeldFrame(4)); err != nil {
		t.Fatal(err)
	}
	if typ, stream, _ := readMux(t, conn); typ != wire.TypePong || stream != 4 {
		t.Fatalf("ping after overload: %v on stream %d", typ, stream)
	}
}

// TestServeAnswersPing: Serve answers Ping itself on both framings — a
// Pong echoing the token, CodeBadRequest for a malformed one — so that
// anything that can be dialed can be measured; the handler never sees it.
func TestServeAnswersPing(t *testing.T) {
	addr, _, _ := startServe(t, ServeConfig{Handler: func(typ wire.MsgType, _, dst []byte) (wire.MsgType, []byte) {
		t.Errorf("handler called with %v", typ)
		return wire.AppendError(dst, wire.CodeUnknownType, "unreachable")
	}})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, wire.TypePing, (&wire.Ping{Token: 7}).Encode(nil)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(conn)
	if err != nil || typ != wire.TypePong {
		t.Fatalf("lockstep ping answered %v %v, want Pong", typ, err)
	}
	if pong, err := wire.DecodePong(payload); err != nil || pong.Token != 7 {
		t.Fatalf("pong %+v %v, want token 7", pong, err)
	}
	if err := wire.WriteFrame(conn, wire.TypePing, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	typ, payload, err = wire.ReadFrame(conn)
	if werr, derr := wire.DecodeError(payload); err != nil || typ != wire.TypeError || derr != nil || werr.Code != wire.CodeBadRequest {
		t.Fatalf("malformed ping answered %v %+v (%v, %v), want CodeBadRequest", typ, werr, err, derr)
	}
	mux := dialMux(t, addr, 8)
	if _, err := mux.Write(wire.AppendMuxFrame(nil, wire.TypePing, 3, (&wire.Ping{Token: 9}).Encode(nil))); err != nil {
		t.Fatal(err)
	}
	if typ, stream, _ := readMux(t, mux); typ != wire.TypePong || stream != 3 {
		t.Fatalf("mux ping answered %v on stream %d, want Pong on 3", typ, stream)
	}
}

// FuzzServeConn feeds an arbitrary byte stream, delivered in small
// chunks, to one served connection with an echo handler. Whatever the
// bytes say — lockstep frames, a Hello and mux frames, garbage — the
// connection must end without a panic, everything it wrote must be
// well-formed frames, and no goroutine may outlive it.
func FuzzServeConn(f *testing.F) {
	ping := (&wire.Ping{Token: 7}).Encode(nil)
	hello := (&wire.Hello{MaxVersion: wire.VersionMux, MaxInflight: 2}).Encode(nil)
	upgraded := wire.AppendFrame(nil, wire.TypeHello, hello)
	for s := uint32(1); s <= 4; s++ {
		upgraded = wire.AppendMuxFrame(upgraded, wire.TypePing, s, ping)
	}
	f.Add(wire.AppendFrame(wire.AppendFrame(nil, wire.TypePing, ping), wire.TypeGetModel, nil), 3)
	f.Add(upgraded, 5)
	f.Add(wire.AppendFrame(nil, wire.TypeHello, []byte{1}), 1)
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"), 2)
	f.Add([]byte{}, 0)
	f.Fuzz(func(t *testing.T, data []byte, chunk int) {
		cfg := ServeConfig{
			Handler:        echoHandler,
			RequestTimeout: time.Second,
			IdleTimeout:    time.Second,
			Window:         4,
			Workers:        2,
			Logf:           func(string, ...any) {},
		}
		before := runtime.NumGoroutine()
		conn := &scriptConn{script: data, chunk: int(uint(chunk)%9) + 1}
		cfg.serveConn(context.Background(), conn)

		// The writer goroutine signals completion a few instructions
		// before it is gone, so allow it a moment.
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines before the connection, %d after it closed", before, runtime.NumGoroutine())
			}
			time.Sleep(time.Millisecond)
		}
		out := bytes.NewReader(conn.wrote.Bytes())
		for {
			_, _, _, _, err := wire.ReadMuxFrameInto(out, nil)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("connection wrote a malformed frame: %v", err)
			}
		}
	})
}

// TestServeAcceptFailure checks a listener that fails for a reason other
// than cancellation surfaces as an error, not a hang.
func TestServeAcceptFailure(t *testing.T) {
	ln := testutil.Loopback(t)
	ln.Close()
	err := Serve(context.Background(), ln, ServeConfig{Handler: echoHandler, Logf: t.Logf})
	if err == nil || errors.Is(err, context.Canceled) {
		t.Fatalf("Serve on a closed listener returned %v", err)
	}
}

// TestServeCancelClosesConnsAcceptedDuringCancel: Serve closes every
// live connection from its one cancellation hook and returns, including
// connections that are being accepted while the hook runs — those must
// end up either in the set the hook closes or refused at the door, never
// served with nothing left to cancel them.
func TestServeCancelClosesConnsAcceptedDuringCancel(t *testing.T) {
	for round := 0; round < 20; round++ {
		addr, cancel, done := startServe(t, ServeConfig{
			Handler: echoHandler, IdleTimeout: time.Hour, RequestTimeout: time.Hour,
		})
		// Some connections are established and mid-session before the
		// cancel, the rest race it.
		var conns []net.Conn
		var mu sync.Mutex
		dial := func() {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return // the listener is already closed
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
		for i := 0; i < 4; i++ {
			dial()
			c := conns[i]
			if err := wire.WriteFrame(c, wire.TypePing, (&wire.Ping{Token: 1}).Encode(nil)); err != nil {
				t.Fatal(err)
			}
			if _, _, err := wire.ReadFrame(c); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() { defer wg.Done(); dial() }()
		}
		cancel()
		wg.Wait()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Serve did not return after cancel: a connection outlived the cancellation hook")
		}
		// Every connection that got through the door has been closed by
		// the server: a request gets the end of the connection, neither
		// an answer nor the hour-long idle budget. (The request matters
		// for a dial the kernel completed for a listener that closed
		// before accepting it: only traffic draws that one's reset.)
		for _, c := range conns {
			c.SetDeadline(time.Now().Add(5 * time.Second))                        //nolint:errcheck
			wire.WriteFrame(c, wire.TypePing, (&wire.Ping{Token: 2}).Encode(nil)) //nolint:errcheck
			if _, _, err := wire.ReadFrame(c); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("connection still served after Serve returned (read: %v)", err)
			}
			c.Close()
		}
	}
}
