package landmark

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/simnet"
	"github.com/ides-go/ides/internal/topology"
	"github.com/ides-go/ides/internal/transport"
	"github.com/ides-go/ides/internal/wire"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config must be rejected")
	}
}

func simHosts(t *testing.T, n int) (*simnet.Network, []string) {
	t.Helper()
	topo, err := topology.Generate(topology.Config{Seed: 5, NumHosts: n})
	if err != nil {
		t.Fatal(err)
	}
	names := simnet.DefaultNames(n)
	nw, err := simnet.New(topo, names, simnet.Config{TimeScale: 1e-5, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	return nw, names
}

func TestMeasureOnceSkipsSelfAndFailures(t *testing.T) {
	nw, names := simHosts(t, 5)
	h, err := nw.Host(names[0])
	if err != nil {
		t.Fatal(err)
	}
	agent, err := New(Config{
		Self:   names[0],
		Peers:  []string{names[0], names[1], "ghost", names[2]},
		Server: names[3],
		Dialer: h,
		Pinger: h,
	})
	if err != nil {
		t.Fatal(err)
	}
	entries := agent.MeasureOnce(context.Background())
	if len(entries) != 2 {
		t.Fatalf("expected 2 entries (self and ghost skipped), got %d: %+v", len(entries), entries)
	}
	for _, e := range entries {
		if e.RTTMillis <= 0 {
			t.Fatalf("entry %+v has nonpositive RTT", e)
		}
	}
}

func TestReportOnceFailsWithNoPeers(t *testing.T) {
	nw, names := simHosts(t, 3)
	h, err := nw.Host(names[0])
	if err != nil {
		t.Fatal(err)
	}
	agent, err := New(Config{
		Self:   names[0],
		Peers:  []string{"ghost1", "ghost2"},
		Server: names[1],
		Dialer: h,
		Pinger: h,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.ReportOnce(context.Background()); err == nil {
		t.Fatal("report with zero successful measurements must fail")
	}
}

func TestServeEchoAnswersPings(t *testing.T) {
	nw, names := simHosts(t, 4)
	lmHost, err := nw.Host(names[0])
	if err != nil {
		t.Fatal(err)
	}
	agent, err := New(Config{
		Self:   names[0],
		Peers:  []string{names[1]},
		Server: names[2],
		Dialer: lmHost,
		Pinger: lmHost,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := lmHost.Listen()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- agent.ServeEcho(ctx, ln) }()

	// A TCPPinger over simnet measures the echo RTT.
	other, err := nw.Host(names[3])
	if err != nil {
		t.Fatal(err)
	}
	pinger := &transport.TCPPinger{Dialer: other}
	pctx, pcancel := context.WithTimeout(ctx, 10*time.Second)
	defer pcancel()
	rtt, err := pinger.Ping(pctx, names[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 {
		t.Fatalf("echo RTT = %v", rtt)
	}

	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeEcho did not stop")
	}
}

// startEcho serves an agent's echo on simnet host names[0] and returns a
// second host to dial it from.
func startEcho(t *testing.T) (context.Context, *simnet.Host, string) {
	t.Helper()
	nw, names := simHosts(t, 3)
	lmHost, err := nw.Host(names[0])
	if err != nil {
		t.Fatal(err)
	}
	agent, err := New(Config{
		Self:   names[0],
		Peers:  []string{names[1]},
		Server: names[2],
		Dialer: lmHost,
		Pinger: lmHost,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := lmHost.Listen()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); agent.ServeEcho(ctx, ln) }() //nolint:errcheck
	t.Cleanup(func() { cancel(); <-done })
	other, err := nw.Host(names[1])
	if err != nil {
		t.Fatal(err)
	}
	return ctx, other, names[0]
}

// TestServeEchoRejectsNonPing checks anything but a well-formed Ping is
// answered with an error frame on a connection that stays open: the old
// loop hung up after a non-Ping and silently dropped a malformed Ping.
func TestServeEchoRejectsNonPing(t *testing.T) {
	ctx, other, addr := startEcho(t)
	conn, err := other.DialContext(ctx, "simnet", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, tc := range []struct {
		typ     wire.MsgType
		payload []byte
		code    uint16
	}{
		{wire.TypeGetModel, nil, wire.CodeUnknownType},
		{wire.TypePing, []byte{1, 2, 3}, wire.CodeBadRequest},
	} {
		if err := wire.WriteFrame(conn, tc.typ, tc.payload); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("%v: %v", tc.typ, err)
		}
		if typ != wire.TypeError {
			t.Fatalf("%v answered %v, want Error", tc.typ, typ)
		}
		if werr, err := wire.DecodeError(payload); err != nil || werr.Code != tc.code {
			t.Fatalf("%v error %+v %v, want code %d", tc.typ, werr, err, tc.code)
		}
	}
	if err := wire.WriteFrame(conn, wire.TypePing, (&wire.Ping{Token: 4}).Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wire.ReadFrame(conn); err != nil || typ != wire.TypePong {
		t.Fatalf("ping after rejected frames: %v %v", typ, err)
	}
}

// TestServeEchoAnswersPooledCalls checks a default transport.Pool — which
// opens every connection with a Hello — reaches the echo over multiplexed
// framing without a retry. The old loop answered Hello with an error and
// hung up, so the pool's downgraded connection was dead on first use.
func TestServeEchoAnswersPooledCalls(t *testing.T) {
	ctx, other, addr := startEcho(t)
	pool, err := transport.NewPool(transport.PoolConfig{Dialer: other})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for token := uint64(1); token <= 2; token++ {
		typ, payload, err := pool.Call(ctx, addr, wire.TypePing, (&wire.Ping{Token: token}).Encode(nil))
		if err != nil || typ != wire.TypePong {
			t.Fatalf("pooled ping %d: %v %v", token, typ, err)
		}
		if got, err := wire.PingToken(payload); err != nil || got != token {
			t.Fatalf("pooled ping %d echoed %d %v", token, got, err)
		}
	}
	if st := pool.Stats(); st.Retries != 0 {
		t.Fatalf("pooled pings needed %d retries", st.Retries)
	}
	if ms := pool.MuxStats(); ms.Frames < 2 {
		t.Fatalf("pooled pings did not ride a mux connection: %+v", ms)
	}
}

func TestRunReportsPeriodically(t *testing.T) {
	nw, names := simHosts(t, 4)
	// Count reports arriving at a fake server.
	srvHost, err := nw.Host(names[2])
	if err != nil {
		t.Fatal(err)
	}
	ln, err := srvHost.Listen()
	if err != nil {
		t.Fatal(err)
	}
	reports := make(chan struct{}, 64)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				for {
					typ, _, err := wire.ReadFrame(c)
					if err != nil {
						return
					}
					if typ == wire.TypeReportRTT {
						reports <- struct{}{}
					}
					if err := wire.WriteFrame(c, wire.TypeAck, nil); err != nil {
						return
					}
				}
			}(conn)
		}
	}()

	lmHost, err := nw.Host(names[0])
	if err != nil {
		t.Fatal(err)
	}
	agent, err := New(Config{
		Self:     names[0],
		Peers:    []string{names[1]},
		Server:   names[2],
		Dialer:   lmHost,
		Pinger:   lmHost,
		Interval: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- agent.Run(ctx) }()

	// Expect at least 3 reports: the immediate one plus ticks.
	deadline := time.After(5 * time.Second)
	for got := 0; got < 3; {
		select {
		case <-reports:
			got++
		case <-deadline:
			t.Fatalf("only %d reports before deadline", got)
		}
	}
	cancel()
	ln.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on cancel")
	}
}

// acceptCounter counts accepted connections (to prove pooled reports
// reuse one connection across rounds).
type acceptCounter struct {
	net.Listener
	accepts atomic.Int64
}

func (l *acceptCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

func TestReportOncePoolsServerConnection(t *testing.T) {
	// A fake server that Acks every report, counting connections; several
	// report rounds must share one pooled connection.
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { base.Close() })
	ln := &acceptCounter{Listener: base}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				for {
					typ, _, err := wire.ReadFrame(c)
					if err != nil {
						return
					}
					if typ != wire.TypeReportRTT {
						// Per the wire evolution policy, unknown types get
						// an error frame (this is what lets mux-capable
						// clients downgrade to lockstep cleanly).
						e := &wire.Error{Code: wire.CodeUnknownType, Text: "nope"}
						if err := wire.WriteFrame(c, wire.TypeError, e.Encode(nil)); err != nil {
							return
						}
						continue
					}
					if err := wire.WriteFrame(c, wire.TypeAck, nil); err != nil {
						return
					}
				}
			}(conn)
		}
	}()

	// Echo peer so MeasureOnce succeeds.
	peerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peerLn.Close() })
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	peer, err := New(Config{
		Self:   peerLn.Addr().String(),
		Peers:  []string{"unused"},
		Server: base.Addr().String(),
		Dialer: dialer,
		Pinger: &transport.TCPPinger{Dialer: dialer},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	go peer.ServeEcho(ctx, peerLn) //nolint:errcheck

	agent, err := New(Config{
		Self:    "lm-self",
		Peers:   []string{peerLn.Addr().String()},
		Server:  base.Addr().String(),
		Dialer:  dialer,
		Pinger:  &transport.TCPPinger{Dialer: dialer},
		Samples: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	const rounds = 5
	for i := 0; i < rounds; i++ {
		if err := agent.ReportOnce(ctx); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if got := ln.accepts.Load(); got != 1 {
		t.Fatalf("%d report rounds opened %d server connections, want 1 pooled", rounds, got)
	}
}
