package transport

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/testutil"
	"github.com/ides-go/ides/internal/wire"
)

func dialMuxConn(t *testing.T, addr string, maxInflight int) *MuxConn {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conn, err := (&net.Dialer{}).DialContext(ctx, "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := NewMuxConn(ctx, conn, maxInflight)
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { mc.Close() })
	return mc
}

// openStreams counts the streams c has handed out and not yet released.
func openStreams(c *MuxConn) int { return len(c.slots) - len(c.freeSlots) }

func muxPing(t *testing.T, mc *MuxConn, token uint64) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	typ, payload, _, err := mc.CallInto(ctx, wire.TypePing, (&wire.Ping{Token: token}).Encode(nil), nil)
	if err != nil {
		return err
	}
	if typ != wire.TypePong {
		t.Fatalf("type %v, want Pong", typ)
	}
	pong, err := wire.DecodePong(payload)
	if err != nil || pong.Token != token {
		t.Fatalf("pong %+v err %v, want token %d", pong, err, token)
	}
	return nil
}

// TestMuxConnEchoRefusesPastWindow: the echo server the MuxConn and pool
// tests run against holds the window it advertised as Serve does. One
// write of window+1 streams gets window Pongs and exactly one
// CodeOverloaded, so a client that overran the window would fail against
// the echo as well as against Serve.
func TestMuxConnEchoRefusesPastWindow(t *testing.T) {
	const window = 4
	ln := testutil.Loopback(t)
	testutil.MuxEchoServer(t, ln, window)
	conn := dialMux(t, ln.Addr().String(), 64)
	var burst []byte
	for s := uint32(1); s <= window+1; s++ {
		burst = wire.AppendMuxFrame(burst, wire.TypePing, s, (&wire.Ping{Token: uint64(s)}).Encode(nil))
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	pongs, overloaded := 0, 0
	for range window + 1 {
		switch typ, stream, code := readMux(t, conn); {
		case typ == wire.TypePong:
			pongs++
		case typ == wire.TypeError && code == wire.CodeOverloaded:
			overloaded++
		default:
			t.Fatalf("stream %d answered %v (code %d)", stream, typ, code)
		}
	}
	if pongs != window || overloaded != 1 {
		t.Fatalf("%d Pongs and %d CodeOverloaded for %d streams over a window of %d, want %d and 1",
			pongs, overloaded, window+1, window, window)
	}
}

// TestMuxConnConcurrentStreams drives 64 goroutines through one MuxConn
// — far more callers than the negotiated window when the server caps it
// — and checks every reply routes back to its own stream. Run under
// -race this is the main interleaving test for the slot table.
func TestMuxConnConcurrentStreams(t *testing.T) {
	ln := testutil.Loopback(t)
	testutil.MuxEchoServer(t, ln, 16)
	mc := dialMuxConn(t, ln.Addr().String(), 64)
	if w := len(mc.slots); w != 16 {
		t.Fatalf("negotiated window %d, want the server cap 16", w)
	}

	const callers, calls = 64, 20
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if err := muxPing(t, mc, uint64(g*1000+i)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := mc.Stats()
	if st.Frames != callers*calls {
		t.Fatalf("wrote %d frames, want %d", st.Frames, callers*calls)
	}
	if n := openStreams(mc); n != 0 {
		t.Fatalf("%d streams open after all calls returned", n)
	}
}

// TestMuxConnMidStreamReset severs the connection while 64 callers are
// in flight: every caller must get an error promptly — none may hang on
// a reply that will never come — and later calls must fail fast.
func TestMuxConnMidStreamReset(t *testing.T) {
	ln := testutil.Loopback(t)
	var srvConn atomic.Value
	// A server that completes the handshake and then goes silent, so
	// every stream is parked in flight when the test cuts the socket.
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		srvConn.Store(conn)
		var buf []byte
		for {
			typ, _, payload, scratch, err := wire.ReadMuxFrameInto(conn, buf)
			buf = scratch
			if err != nil {
				return
			}
			if typ == wire.TypeHello {
				hello, err := wire.DecodeHello(payload)
				if err != nil {
					return
				}
				ack := wire.HelloAck{Version: wire.VersionMux, MaxInflight: hello.MaxInflight}
				if err := wire.WriteFrame(conn, wire.TypeHelloAck, ack.Encode(nil)); err != nil {
					return
				}
			}
			// All other frames are swallowed.
		}
	}()
	mc := dialMuxConn(t, ln.Addr().String(), 64)

	const callers = 64
	var started, failed sync.WaitGroup
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for g := 0; g < callers; g++ {
		started.Add(1)
		failed.Add(1)
		go func(g int) {
			defer failed.Done()
			payload := (&wire.Ping{Token: uint64(g)}).Encode(nil)
			started.Done()
			if _, _, _, err := mc.CallInto(ctx, wire.TypePing, payload, nil); err == nil {
				t.Error("call succeeded across a connection reset")
			}
		}(g)
	}
	started.Wait()
	// Give the calls a moment to arm their streams, then cut the socket.
	for openStreams(mc) < callers {
		if ctx.Err() != nil {
			t.Fatalf("only %d/%d streams open before deadline", openStreams(mc), callers)
		}
		time.Sleep(time.Millisecond)
	}
	srvConn.Load().(net.Conn).Close()

	done := make(chan struct{})
	go func() { failed.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("callers still hanging after connection reset")
	}
	if !mc.Dead() {
		t.Fatal("connection must be marked dead after reset")
	}
	if err := muxPing(t, mc, 1); err == nil {
		t.Fatal("call on a dead mux conn must fail")
	}
}

// TestMuxConnHandshakeDowngrade checks the v1 fallback: a pre-mux
// server answers Hello with an error frame, NewMuxConn reports
// ErrMuxUnsupported, and the connection stays healthy for lockstep use.
func TestMuxConnHandshakeDowngrade(t *testing.T) {
	ln := testutil.Loopback(t)
	testutil.EchoServer(t, ln)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conn, err := (&net.Dialer{}).DialContext(ctx, "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := NewMuxConn(ctx, conn, 0); !errors.Is(err, ErrMuxUnsupported) {
		t.Fatalf("handshake with v1 server: %v, want ErrMuxUnsupported", err)
	}
	// The same connection must still complete a v1 exchange.
	typ, payload, err := Roundtrip(ctx, conn, wire.TypePing, (&wire.Ping{Token: 9}).Encode(nil))
	if err != nil {
		t.Fatalf("lockstep call after downgrade: %v", err)
	}
	if typ != wire.TypePong {
		t.Fatalf("type %v", typ)
	}
	if pong, err := wire.DecodePong(payload); err != nil || pong.Token != 9 {
		t.Fatalf("pong %+v err %v", pong, err)
	}
}

// TestMuxConnCancelOneStream cancels one in-flight call and checks the
// connection survives: the cancelled caller returns promptly with the
// context error, other streams keep completing, and the late reply to
// the cancelled stream is counted stale rather than misdelivered.
func TestMuxConnCancelOneStream(t *testing.T) {
	ln := testutil.Loopback(t)
	release := make(chan struct{})
	// A mux server that answers Pings immediately but holds GetInfo
	// until released.
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var buf []byte
		var wmu sync.Mutex
		for {
			typ, stream, payload, scratch, err := wire.ReadMuxFrameInto(conn, buf)
			buf = scratch
			if err != nil {
				return
			}
			switch typ {
			case wire.TypeHello:
				hello, err := wire.DecodeHello(payload)
				if err != nil {
					return
				}
				ack := wire.HelloAck{Version: wire.VersionMux, MaxInflight: hello.MaxInflight}
				if err := wire.WriteFrame(conn, wire.TypeHelloAck, ack.Encode(nil)); err != nil {
					return
				}
			case wire.TypePing:
				p, err := wire.DecodePing(payload)
				if err != nil {
					return
				}
				wmu.Lock()
				conn.Write(wire.AppendMuxFrame(nil, wire.TypePong, stream, (&wire.Pong{Token: p.Token}).Encode(nil))) //nolint:errcheck
				wmu.Unlock()
			case wire.TypeGetInfo:
				go func(stream uint32) {
					<-release
					info := &wire.Info{Dim: 1, NumLandmarks: 2, Algorithm: "SVD"}
					wmu.Lock()
					conn.Write(wire.AppendMuxFrame(nil, wire.TypeInfo, stream, info.Encode(nil))) //nolint:errcheck
					wmu.Unlock()
				}(stream)
			}
		}
	}()
	mc := dialMuxConn(t, ln.Addr().String(), 8)

	ctx, cancel := context.WithCancel(context.Background())
	slow := make(chan error, 1)
	go func() {
		_, _, _, err := mc.CallInto(ctx, wire.TypeGetInfo, nil, nil)
		slow <- err
	}()
	// Wait until the slow call is in flight, then cancel only it.
	deadline := time.After(5 * time.Second)
	for openStreams(mc) == 0 {
		select {
		case <-deadline:
			t.Fatal("slow call never armed")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	cancel()
	select {
	case err := <-slow:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled call returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled call did not return")
	}
	if mc.Dead() {
		t.Fatal("cancelling one stream must not kill the connection")
	}
	// The connection keeps serving other streams.
	if err := muxPing(t, mc, 11); err != nil {
		t.Fatal(err)
	}
	// Release the held reply: it targets a retired generation and must
	// be dropped as stale, not delivered to a later call on the slot.
	close(release)
	deadline = time.After(5 * time.Second)
	for mc.Stats().Stale == 0 {
		select {
		case <-deadline:
			t.Fatalf("late reply never counted stale: %+v", mc.Stats())
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if err := muxPing(t, mc, 12); err != nil {
		t.Fatal(err)
	}
}

// TestMuxConnCoalescesWrites checks the batching that the ≥3x
// concurrency win rides on: many callers enqueueing at once must share
// Write syscalls.
func TestMuxConnCoalescesWrites(t *testing.T) {
	ln := testutil.Loopback(t)
	testutil.MuxEchoServer(t, ln, 0)
	mc := dialMuxConn(t, ln.Addr().String(), 64)

	const callers, calls = 32, 30
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				muxPing(t, mc, uint64(g*1000+i)) //nolint:errcheck
			}
		}(g)
	}
	wg.Wait()
	st := mc.Stats()
	if st.Flushes >= st.Frames {
		t.Fatalf("no write coalescing: %d flushes for %d frames", st.Flushes, st.Frames)
	}
	if st.Coalesced == 0 {
		t.Fatalf("coalesced counter never moved: %+v", st)
	}
}

// TestPoolMuxRouting checks the pool path end to end: calls on a
// mux-capable server share one multiplexed connection instead of
// dialing per concurrent caller.
func TestPoolMuxRouting(t *testing.T) {
	ln := &testutil.CountingListener{Listener: testutil.Loopback(t)}
	testutil.MuxEchoServer(t, ln, 0)
	addr := ln.Addr().String()
	p := newTestPool(t, PoolConfig{MuxConns: 1})

	const callers, calls = 16, 10
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				poolPing(t, p, addr, uint64(g*1000+i))
			}
		}(g)
	}
	wg.Wait()
	if got := ln.Accepts(); got != 1 {
		t.Fatalf("%d concurrent callers opened %d connections, want the one mux conn", callers, got)
	}
	// One caller dials the connection inline while the rest wait for it.
	st := p.Stats()
	if st.Reuses != callers*calls-1 {
		t.Fatalf("stats %+v: want all %d calls but the one that dialed counted as reuses of the mux conn", st, callers*calls)
	}
}

// TestPoolSlotQueueFIFO is the regression test for the broadcast waiter
// bug: with one slot and a queue of blocked callers, slots must hand
// off to the oldest waiter — no barging, no starvation — so completion
// order matches arrival order.
func TestPoolSlotQueueFIFO(t *testing.T) {
	ln := testutil.Loopback(t)
	testutil.EchoServer(t, ln)
	addr := ln.Addr().String()
	p := newTestPool(t, PoolConfig{MaxPerHost: 1, MaxIdlePerHost: 1, MuxConns: -1})

	// Occupy the only slot so every later caller queues.
	hold, _, err := p.get(context.Background(), addr, false)
	if err != nil {
		t.Fatal(err)
	}

	const waiters = 8
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			pc, _, err := p.get(ctx, addr, false)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			p.put(addr, pc)
		}(i)
		// Stagger arrivals so the queue order is deterministic.
		time.Sleep(20 * time.Millisecond)
	}
	p.put(addr, hold)
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("slot grant order %v, want FIFO arrival order", order)
		}
	}
}
