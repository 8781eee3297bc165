package transport

import (
	"context"
	"errors"
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

func TestPoolReusesConnections(t *testing.T) {
	ln, addr := testutil.CountingEcho(t)
	p := newTestPool(t, PoolConfig{})
	for i := 0; i < 20; i++ {
		poolPing(t, p, addr, uint64(i+1))
	}
	if got := ln.Accepts(); got != 1 {
		t.Fatalf("20 sequential pooled calls used %d connections, want 1", got)
	}
	st := p.Stats()
	if st.Dials != 1 || st.Reuses != 19 {
		t.Fatalf("stats %+v, want 1 dial and 19 reuses", st)
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
	ln, addr := testutil.CountingEcho(t)
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

func TestPoolSurvivesServerRestart(t *testing.T) {
	// Track accepted connections so the "restart" can sever them: closing
	// a listener alone does not close conns already handed to handlers.
	ln := testutil.Loopback(t)
	addr := ln.Addr().String()
	tracking := &testutil.TrackingListener{Listener: ln}
	testutil.EchoServer(t, tracking)
	p := newTestPool(t, PoolConfig{})
	poolPing(t, p, addr, 1)

	// Restart: close the listener and every accepted connection (killing
	// the pooled connection's peer), then re-listen on the same address.
	ln.Close()
	tracking.CloseConns()
	time.Sleep(50 * time.Millisecond)
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	t.Cleanup(func() { ln2.Close() })
	testutil.EchoServer(t, ln2)

	// The pooled connection is dead; the call must recover via the
	// single transparent retry against the restarted server.
	poolPing(t, p, addr, 2)
	if st := p.Stats(); st.Retries == 0 && st.Dials < 2 {
		t.Fatalf("stats %+v: expected a retry or fresh dial after restart", st)
	}
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
	_, addr := testutil.CountingEcho(t)
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
}

func TestNewPoolRequiresDialer(t *testing.T) {
	if _, err := NewPool(PoolConfig{}); err == nil {
		t.Fatal("NewPool without a Dialer must fail")
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
