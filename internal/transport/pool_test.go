package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/testutil"
	"github.com/ides-go/ides/internal/wire"
)

func newTestPool(t *testing.T, cfg PoolConfig) *Pool {
	t.Helper()
	if cfg.Dialer == nil {
		cfg.Dialer = &net.Dialer{}
	}
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func poolPing(t *testing.T, p *Pool, addr string, token uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	typ, payload, err := p.Call(ctx, addr, wire.TypePing, (&wire.Ping{Token: token}).Encode(nil))
	if err != nil {
		t.Fatalf("pool call: %v", err)
	}
	if typ != wire.TypePong {
		t.Fatalf("type %v, want Pong", typ)
	}
	pong, err := wire.DecodePong(payload)
	if err != nil || pong.Token != token {
		t.Fatalf("pong %+v err %v, want token %d", pong, err, token)
	}
}

// TestRoundtripClearsStaleDeadline is the regression test for the reuse
// bug: a call with a context deadline used to leave that deadline armed
// on the connection, so a later call with no deadline on the same
// connection failed as soon as the stale deadline passed.
func TestRoundtripClearsStaleDeadline(t *testing.T) {
	ln := testutil.Loopback(t)
	testutil.EchoServer(t, ln)
	d := &net.Dialer{}
	conn, err := d.DialContext(context.Background(), "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	typ, _, err := Roundtrip(ctx, conn, wire.TypePing, (&wire.Ping{Token: 1}).Encode(nil))
	cancel()
	if err != nil || typ != wire.TypePong {
		t.Fatalf("with-deadline call: type %v err %v", typ, err)
	}

	// Let the first call's absolute deadline expire, then reuse the
	// connection with a deadline-free context: the call must succeed
	// rather than inherit the stale deadline and time out instantly.
	time.Sleep(250 * time.Millisecond)
	typ, _, err = Roundtrip(context.Background(), conn, wire.TypePing, (&wire.Ping{Token: 2}).Encode(nil))
	if err != nil {
		t.Fatalf("no-deadline call on reused conn inherited a stale deadline: %v", err)
	}
	if typ != wire.TypePong {
		t.Fatalf("type %v, want Pong", typ)
	}
}

// poolPeers are the two kinds of peer a default-config pool meets, and
// with them the two kinds of connection the one exchange loop leases: a
// pre-mux server refuses the Hello probe, so every call rides a lockstep
// connection (the first one the downgraded probe connection itself); a
// mux server accepts it, so every call is a stream. The pool's contract
// — replies, reuse, replay, the Stats arithmetic — is the same on both.
var poolPeers = []struct {
	name  string
	mux   bool
	serve func(testing.TB, net.Listener)
}{
	{"lockstep", false, testutil.EchoServer},
	{"mux", true, func(t testing.TB, ln net.Listener) { testutil.MuxEchoServer(t, ln, 0) }},
}

func TestPoolReusesConnections(t *testing.T) {
	for _, peer := range poolPeers {
		t.Run(peer.name, func(t *testing.T) {
			ln := &testutil.CountingListener{Listener: testutil.Loopback(t)}
			peer.serve(t, ln)
			p := newTestPool(t, PoolConfig{})
			for i := 0; i < 20; i++ {
				poolPing(t, p, ln.Addr().String(), uint64(i+1))
			}
			if got := ln.Accepts(); got != 1 {
				t.Fatalf("20 sequential pooled calls used %d connections, want 1", got)
			}
			// The call that dialed is the dial; every other is a reuse.
			if st := p.Stats(); st.Dials != 1 || st.Reuses != 19 || st.Retries != 0 || st.Discards != 0 {
				t.Fatalf("stats %+v, want 1 dial, 19 reuses and nothing else", st)
			}
		})
	}
}

func TestPoolConcurrentCalls(t *testing.T) {
	// Hammer one pool from many goroutines (meaningful under -race) and
	// check the per-host cap was respected.
	const maxConns = 4
	ln, addr := testutil.CountingEcho(t)
	p := newTestPool(t, PoolConfig{MaxPerHost: maxConns, MaxIdlePerHost: maxConns})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				poolPing(t, p, addr, uint64(g*1000+i+1))
			}
		}(g)
	}
	wg.Wait()
	if got := ln.Accepts(); got > maxConns {
		t.Fatalf("pool opened %d connections, MaxPerHost is %d", got, maxConns)
	}
	st := p.Stats()
	if st.Dials+st.Reuses != 16*25 {
		t.Fatalf("stats %+v do not account for all %d calls", st, 16*25)
	}
}

func TestPoolWireErrorKeepsConnection(t *testing.T) {
	// An application-level error frame is a healthy exchange: the
	// connection must go back to the pool, not be discarded.
	for _, peer := range poolPeers {
		t.Run(peer.name, func(t *testing.T) {
			ln := &testutil.CountingListener{Listener: testutil.Loopback(t)}
			peer.serve(t, ln)
			addr := ln.Addr().String()
			p := newTestPool(t, PoolConfig{})
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_, _, err := p.Call(ctx, addr, wire.TypeGetModel, nil)
			var werr *wire.Error
			if !errors.As(err, &werr) {
				t.Fatalf("error %v should unwrap to *wire.Error", err)
			}
			poolPing(t, p, addr, 7)
			if got := ln.Accepts(); got != 1 {
				t.Fatalf("wire error discarded the connection: %d accepts, want 1", got)
			}
			if st := p.Stats(); st.Dials != 1 || st.Reuses != 1 || st.Retries != 0 || st.Discards != 0 {
				t.Fatalf("stats %+v, want 1 dial, 1 reuse and nothing else", st)
			}
		})
	}
}

func TestPoolRetriesDeadIdleConnection(t *testing.T) {
	// A server that serves one request per connection and then closes it:
	// every pooled reuse finds a dead connection and must transparently
	// replay on a fresh one.
	ln := testutil.Loopback(t)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				typ, payload, err := wire.ReadFrame(c)
				if err != nil || typ != wire.TypePing {
					return
				}
				p, err := wire.DecodePing(payload)
				if err != nil {
					return
				}
				_ = wire.WriteFrame(c, wire.TypePong, (&wire.Pong{Token: p.Token}).Encode(nil))
			}(conn)
		}
	}()
	p := newTestPool(t, PoolConfig{})
	poolPing(t, p, ln.Addr().String(), 1)
	// Give the server's close time to land so the next call reuses a
	// genuinely dead connection rather than winning the race.
	time.Sleep(50 * time.Millisecond)
	poolPing(t, p, ln.Addr().String(), 2)
	if st := p.Stats(); st.Retries != 1 {
		t.Fatalf("stats %+v, want exactly one transparent retry", st)
	}
}

func TestPoolReapsIdleConnections(t *testing.T) {
	_, addr := testutil.CountingEcho(t)
	p := newTestPool(t, PoolConfig{IdleTimeout: 50 * time.Millisecond})
	poolPing(t, p, addr, 1)
	if n := p.idleCount(); n != 1 {
		t.Fatalf("%d idle connections after call, want 1", n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for p.idleCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle connection was never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := p.Stats(); st.Discards != 1 {
		t.Fatalf("stats %+v, want the reaped connection counted as a discard", st)
	}
}

// TestPoolMuxWindowQueuesCallers: more concurrent callers than the
// negotiated stream window wait for a stream on the one mux connection
// — no second dial, and no request past the window for the server to
// refuse. Both peers cap the window at 8; transport.Serve also answers
// a stream past it with CodeOverloaded, and its handler holds each call
// long enough for the window to fill.
func TestPoolMuxWindowQueuesCallers(t *testing.T) {
	const window, callers = 8, 32
	peers := []struct {
		name  string
		typ   wire.MsgType
		serve func(t *testing.T, ln net.Listener)
	}{
		{"echo", wire.TypePing, func(t *testing.T, ln net.Listener) { testutil.MuxEchoServer(t, ln, window) }},
		{"serve", heldType, func(t *testing.T, ln net.Listener) {
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() {
				defer close(done)
				Serve(ctx, ln, ServeConfig{ //nolint:errcheck
					Handler: func(typ wire.MsgType, payload, dst []byte) (wire.MsgType, []byte) {
						time.Sleep(2 * time.Millisecond)
						return echoHandler(typ, payload, dst)
					},
					Window: window, Workers: window, Logf: t.Logf,
				})
			}()
			t.Cleanup(func() { cancel(); <-done })
		}},
	}
	for _, peer := range peers {
		t.Run(peer.name, func(t *testing.T) {
			ln := &testutil.CountingListener{Listener: testutil.Loopback(t)}
			peer.serve(t, ln)
			addr := ln.Addr().String()
			p := newTestPool(t, PoolConfig{})
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			errs := make(chan error, callers)
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					payload := (&wire.Ping{Token: uint64(g + 1)}).Encode(nil)
					rt, rp, err := p.Call(ctx, addr, peer.typ, payload)
					if err == nil && (rt != wire.TypePong || string(rp) != string(payload)) {
						err = fmt.Errorf("caller %d: reply %v %x, want Pong %x", g, rt, rp, payload)
					}
					errs <- err
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				var werr *wire.Error
				if errors.As(err, &werr) && werr.Code == wire.CodeOverloaded {
					t.Fatalf("a call went past the stream window: %v", err)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if got := ln.Accepts(); got != 1 {
				t.Fatalf("%d callers over a window of %d opened %d connections, want 1", callers, window, got)
			}
		})
	}
}

func TestPoolSurvivesServerRestart(t *testing.T) {
	for _, peer := range poolPeers {
		t.Run(peer.name, func(t *testing.T) {
			// Track accepted connections so the "restart" can sever them:
			// closing a listener alone does not close conns already handed
			// to handlers.
			ln := testutil.Loopback(t)
			addr := ln.Addr().String()
			tracking := &testutil.TrackingListener{Listener: ln}
			peer.serve(t, tracking)
			p := newTestPool(t, PoolConfig{})
			poolPing(t, p, addr, 1)

			// Restart: close the listener and every accepted connection
			// (killing the pooled connection's peer), then re-listen on
			// the same address.
			ln.Close()
			tracking.CloseConns()
			time.Sleep(50 * time.Millisecond)
			ln2, err := net.Listen("tcp", addr)
			if err != nil {
				t.Skipf("could not rebind %s: %v", addr, err)
			}
			t.Cleanup(func() { ln2.Close() })
			peer.serve(t, ln2)

			// The pooled connection is dead. An idle lockstep connection
			// has nobody watching it, so the call finds out by failing
			// and recovers through the one transparent replay. A mux
			// connection's reader saw the close as it happened: the
			// routing drops it and dials without spending the replay.
			wantRetries := int64(1)
			if peer.mux {
				waitMuxConnDead(t, p, addr)
				wantRetries = 0
			}
			poolPing(t, p, addr, 2)
			if st := p.Stats(); st.Dials != 2 || st.Discards != 1 || st.Retries != wantRetries || st.Reuses != wantRetries {
				t.Fatalf("stats %+v, want 2 dials, 1 discard and %d retry of a reused connection", st, wantRetries)
			}
		})
	}
}

// waitMuxConnDead blocks until the reader of p's one mux connection to
// addr has noticed the peer hang up.
func waitMuxConnDead(t *testing.T, p *Pool, addr string) {
	t.Helper()
	p.mu.Lock()
	mc := p.hosts[addr].mux
	p.mu.Unlock()
	select {
	case <-mc.dead:
	case <-time.After(5 * time.Second):
		t.Fatal("mux connection never noticed its peer closing")
	}
}

// scriptedServer serves every connection accepted from ln with answer,
// which sees the connection's ordinal, the request's ordinal on it and
// the request, and returns the reply — or false to hang up without one.
// With mux set a Hello upgrades the connection to v2 framing, streams
// answered in arrival order; without, it gets a pre-mux server's error
// frame.
func scriptedServer(t *testing.T, ln net.Listener, mux bool, answer func(conn, req int, typ wire.MsgType, payload []byte) (wire.MsgType, []byte, bool)) {
	t.Helper()
	serve := func(c net.Conn, conn int) {
		defer c.Close()
		var buf []byte
		upgraded := false
		for req := 0; ; {
			typ, stream, payload, scratch, err := wire.ReadMuxFrameInto(c, buf)
			buf = scratch
			if err != nil {
				return
			}
			var rt wire.MsgType
			var rp []byte
			switch {
			case typ == wire.TypeHello && mux:
				hello, err := wire.DecodeHello(payload)
				if err != nil {
					return
				}
				ack := wire.HelloAck{Version: wire.VersionMux, MaxInflight: hello.MaxInflight}
				if wire.WriteFrame(c, wire.TypeHelloAck, ack.Encode(nil)) != nil {
					return
				}
				upgraded = true
				continue
			case typ == wire.TypeHello:
				rt, rp = wire.TypeError, (&wire.Error{Code: wire.CodeUnknownType, Text: "nope"}).Encode(nil)
			default:
				var ok bool
				if rt, rp, ok = answer(conn, req, typ, payload); !ok {
					return
				}
				req++
			}
			frame := wire.AppendFrame(nil, rt, rp)
			if upgraded {
				frame = wire.AppendMuxFrame(nil, rt, stream, rp)
			}
			if _, err := c.Write(frame); err != nil {
				return
			}
		}
	}
	go func() {
		for conn := 0; ; conn++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go serve(c, conn)
		}
	}()
}

// TestPoolReplaysOnceWhenMuxConnDies covers the mux side of the replay:
// a mux connection that dies under a call — not while idle, where its
// reader would have noticed first — is dropped and the call replayed on
// a fresh one, exactly once.
func TestPoolReplaysOnceWhenMuxConnDies(t *testing.T) {
	pong := func(payload []byte) (wire.MsgType, []byte, bool) { return wire.TypePong, payload, true }
	t.Run("next connection is healthy", func(t *testing.T) {
		ln := testutil.Loopback(t)
		scriptedServer(t, ln, true, func(conn, _ int, _ wire.MsgType, payload []byte) (wire.MsgType, []byte, bool) {
			if conn == 0 {
				return 0, nil, false
			}
			return pong(payload)
		})
		p := newTestPool(t, PoolConfig{})
		poolPing(t, p, ln.Addr().String(), 1)
		poolPing(t, p, ln.Addr().String(), 2)
		if st := p.Stats(); st.Dials != 2 || st.Discards != 1 || st.Retries != 1 || st.Reuses != 1 {
			t.Fatalf("stats %+v, want 2 dials, 1 discard, 1 retry and the second call a reuse", st)
		}
	})
	t.Run("every connection dies", func(t *testing.T) {
		ln := &testutil.CountingListener{Listener: testutil.Loopback(t)}
		scriptedServer(t, ln, true, func(int, int, wire.MsgType, []byte) (wire.MsgType, []byte, bool) {
			return 0, nil, false
		})
		p := newTestPool(t, PoolConfig{})
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if _, _, err := p.Call(ctx, ln.Addr().String(), wire.TypePing, (&wire.Ping{Token: 1}).Encode(nil)); err == nil {
			t.Fatal("call succeeded against a server that answers nothing")
		}
		if st := p.Stats(); ln.Accepts() != 2 || st.Dials != 2 || st.Discards != 2 || st.Retries != 1 {
			t.Fatalf("%d accepts, stats %+v: want the call given up after one replay", ln.Accepts(), st)
		}
	})
}

func TestPoolAppliesDefaultCallTimeout(t *testing.T) {
	// A server that accepts and never answers: a Call with a deadline-free
	// context must still return once the pool's CallTimeout expires.
	ln := testutil.Loopback(t)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				buf := make([]byte, 1024)
				for {
					if _, err := c.Read(buf); err != nil {
						c.Close()
						return
					}
				}
			}(conn)
		}
	}()
	p := newTestPool(t, PoolConfig{CallTimeout: 100 * time.Millisecond})
	start := time.Now()
	_, _, err := p.Call(context.Background(), ln.Addr().String(), wire.TypePing, (&wire.Ping{Token: 1}).Encode(nil))
	if err == nil {
		t.Fatal("expected timeout")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("default CallTimeout was not applied")
	}
}

func TestPoolMaxIdleCapDiscardsSurplus(t *testing.T) {
	// Finish several calls concurrently so more connections come back
	// than the idle list may hold; the surplus must be closed.
	ln, addr := testutil.CountingEcho(t)
	p := newTestPool(t, PoolConfig{MaxIdlePerHost: 1, MaxPerHost: 8})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			poolPing(t, p, addr, uint64(g+1))
		}(g)
	}
	wg.Wait()
	if n := p.idleCount(); n > 1 {
		t.Fatalf("%d idle connections, MaxIdlePerHost is 1", n)
	}
	if got := ln.Accepts(); got > 8 {
		t.Fatalf("%d connections opened, MaxPerHost is 8", got)
	}
}

func TestPoolClosedRefusesCalls(t *testing.T) {
	for _, peer := range poolPeers {
		t.Run(peer.name, func(t *testing.T) {
			ln := &testutil.CountingListener{Listener: testutil.Loopback(t)}
			peer.serve(t, ln)
			addr := ln.Addr().String()
			p := newTestPool(t, PoolConfig{})
			poolPing(t, p, addr, 1)
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			if n := p.idleCount(); n != 0 {
				t.Fatalf("%d idle connections survived Close", n)
			}
			if _, _, err := p.Call(context.Background(), addr, wire.TypePing, (&wire.Ping{Token: 2}).Encode(nil)); err == nil {
				t.Fatal("Call on a closed pool must fail")
			}
			if got := ln.Accepts(); got != 1 {
				t.Fatalf("the refused call dialed: %d accepts, want 1", got)
			}
		})
	}
}

// TestNewPoolRequiresDialer: NewPool refuses a config without a Dialer,
// and MuxConns past 1 — the pool keeps one mux connection per address —
// rather than read it as 1.
func TestNewPoolRequiresDialer(t *testing.T) {
	for _, tc := range []struct {
		cfg     PoolConfig
		wantErr bool
	}{
		{PoolConfig{}, true},
		{PoolConfig{Dialer: &net.Dialer{}, MuxConns: -1}, false},
		{PoolConfig{Dialer: &net.Dialer{}}, false},
		{PoolConfig{Dialer: &net.Dialer{}, MuxConns: 1}, false},
		{PoolConfig{Dialer: &net.Dialer{}, MuxConns: 2}, true},
	} {
		if _, err := NewPool(tc.cfg); (err != nil) != tc.wantErr {
			t.Fatalf("NewPool(%+v): error %v, want error %v", tc.cfg, err, tc.wantErr)
		}
	}
}

// pipeDialer answers a dial to any address with one end of an in-memory
// pipe whose other end echoes Ping frames until the caller hangs up — ten
// thousand distinct endpoints without ten thousand listeners.
type pipeDialer struct{}

func (pipeDialer) DialContext(context.Context, string, string) (net.Conn, error) {
	cli, srv := net.Pipe()
	go func() {
		defer srv.Close()
		for {
			typ, payload, err := wire.ReadFrame(srv)
			if err != nil || typ != wire.TypePing {
				return
			}
			if wire.WriteFrame(srv, wire.TypePong, payload) != nil {
				return
			}
		}
	}()
	return cli, nil
}

// TestPoolForgetsEndpointsItHoldsNothingFor: a pool that keeps no idle
// and no multiplexed connections — a gossip peer's configuration — and
// calls ten thousand distinct addresses must not end up with ten
// thousand host entries: each entry goes when its one connection does.
// The lifetime totals still account for every call.
func TestPoolForgetsEndpointsItHoldsNothingFor(t *testing.T) {
	p := newTestPool(t, PoolConfig{Dialer: pipeDialer{}, MaxIdlePerHost: -1, MuxConns: -1})
	const addrs = 10_000
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < addrs; i += 4 {
				poolPing(t, p, "peer-"+strconv.Itoa(i), uint64(i))
			}
		}()
	}
	wg.Wait()
	if n := len(p.EndpointStats()); n != 0 {
		t.Fatalf("%d host entries left after %d one-shot calls, want 0", n, addrs)
	}
	if st := p.Stats(); st.Dials != addrs || st.Discards != addrs || st.Reuses != 0 || st.Retries != 0 || st.Idle != 0 {
		t.Fatalf("totals %+v, want %d dials and discards and nothing else", st, addrs)
	}

	// An endpoint the pool does hold something for stays listed, with
	// its own counters: here a parked idle connection.
	keep := newTestPool(t, PoolConfig{Dialer: pipeDialer{}, MuxConns: -1})
	poolPing(t, keep, "peer-a", 1)
	poolPing(t, keep, "peer-a", 2)
	if eps := keep.EndpointStats(); len(eps) != 1 || eps["peer-a"].Dials != 1 || eps["peer-a"].Reuses != 1 || eps["peer-a"].Idle != 1 {
		t.Fatalf("endpoint with an idle connection: %+v", eps)
	}
}
