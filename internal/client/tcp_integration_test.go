package client

import (
	"context"
	"net"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/landmark"
	"github.com/ides-go/ides/internal/server"
	"github.com/ides-go/ides/internal/testutil"
	"github.com/ides-go/ides/internal/transport"
	"github.com/ides-go/ides/internal/wire"
)

// TestFullSystemOverTCP runs the exact deployment the cmd/ binaries wire
// up — information server, landmark echo agents, client with TCPPinger —
// over real loopback TCP sockets. Loopback RTTs are all ~0, so the test
// validates protocol plumbing and lifecycle rather than accuracy.
func TestFullSystemOverTCP(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	dialer := &net.Dialer{Timeout: 5 * time.Second}

	// Four landmark echo agents on ephemeral ports.
	const numLM = 4
	lmAddrs := make([]string, numLM)
	for i := 0; i < numLM; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lmAddrs[i] = ln.Addr().String()
		agent, err := landmark.New(landmark.Config{
			Self:   lmAddrs[i],
			Peers:  []string{}, // filled after all listeners exist
			Server: "placeholder:1",
			Dialer: dialer,
			Pinger: &transport.TCPPinger{Dialer: dialer},
		})
		if err != nil {
			t.Fatal(err)
		}
		go agent.ServeEcho(ctx, ln) //nolint:errcheck
	}

	// Information server.
	srv, err := server.New(server.Config{
		Landmarks: lmAddrs,
		Dim:       2,
		Algorithm: core.SVD,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srvLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srvAddr := srvLn.Addr().String()
	go srv.Serve(ctx, srvLn) //nolint:errcheck

	// Landmark agents measure peers over TCP echo and report.
	for _, self := range lmAddrs {
		agent, err := landmark.New(landmark.Config{
			Self:    self,
			Peers:   lmAddrs,
			Server:  srvAddr,
			Dialer:  dialer,
			Pinger:  &transport.TCPPinger{Dialer: dialer},
			Samples: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := agent.ReportOnce(ctx); err != nil {
			t.Fatalf("landmark %s: %v", self, err)
		}
	}

	// Loopback RTTs can be ~0 µs, which would make the landmark matrix all
	// zeros. Report a synthetic floor on top so the model is nontrivial:
	// re-report with fixed distances (the server keeps the latest value).
	for i, self := range lmAddrs {
		rep := &wire.ReportRTT{From: self}
		for j, to := range lmAddrs {
			if i == j {
				continue
			}
			rep.Entries = append(rep.Entries, wire.RTTEntry{To: to, RTTMillis: float64(10 + 3*(i+j))})
		}
		typ, _, err := transport.Call(ctx, dialer, srvAddr, wire.TypeReportRTT, rep.Encode(nil))
		if err != nil || typ != wire.TypeAck {
			t.Fatalf("re-report: %v %v", typ, err)
		}
	}

	// A client bootstraps through the real stack.
	c, err := New(Config{
		Self:    "client-a",
		Server:  srvAddr,
		Dialer:  dialer,
		Pinger:  &transport.TCPPinger{Dialer: dialer},
		Samples: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Bootstrap(ctx); err != nil {
		t.Fatalf("bootstrap over TCP: %v", err)
	}
	if _, ok := c.Vectors(); !ok {
		t.Fatal("client has no vectors after bootstrap")
	}

	// Second client; estimate between them through the directory.
	c2, err := New(Config{
		Self:    "client-b",
		Server:  srvAddr,
		Dialer:  dialer,
		Pinger:  &transport.TCPPinger{Dialer: dialer},
		Samples: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	est, err := c.EstimateTo(ctx, "client-b")
	if err != nil {
		t.Fatal(err)
	}
	// Loopback distances are tiny; the estimate must simply be finite and
	// small relative to the synthetic landmark scale.
	if est < -5 || est > 100 {
		t.Fatalf("implausible loopback estimate %v ms", est)
	}

	// Server-side distance query works for the registered pair.
	q := &wire.QueryDist{From: "client-a", To: "client-b"}
	typ, payload, err := transport.Call(ctx, dialer, srvAddr, wire.TypeQueryDist, q.Encode(nil))
	if err != nil || typ != wire.TypeDistance {
		t.Fatalf("query: %v %v", typ, err)
	}
	dd, err := wire.ParseDistance(payload)
	if err != nil || !dd.Found {
		t.Fatalf("distance: %+v %v", dd, err)
	}
}

// TestClientPoolsServerConnections drives a client through register +
// many queries over real TCP and asserts the server saw a small, bounded
// number of connections — the pooled-transport contract — rather than
// one dial per exchange.
func TestClientPoolsServerConnections(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dialer := &net.Dialer{Timeout: 5 * time.Second}

	lmAddrs := []string{"lm-a", "lm-b"}
	srv, err := server.New(server.Config{Landmarks: lmAddrs, Dim: 2, Algorithm: core.SVD, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &testutil.CountingListener{Listener: base}
	go srv.Serve(ctx, ln) //nolint:errcheck
	srvAddr := base.Addr().String()

	for i, self := range lmAddrs {
		rep := &wire.ReportRTT{From: self}
		for j, to := range lmAddrs {
			if i == j {
				continue
			}
			rep.Entries = append(rep.Entries, wire.RTTEntry{To: to, RTTMillis: float64(10 + i + j)})
		}
		typ, _, err := transport.Call(ctx, dialer, srvAddr, wire.TypeReportRTT, rep.Encode(nil))
		if err != nil || typ != wire.TypeAck {
			t.Fatalf("report: %v %v", typ, err)
		}
	}

	// The landmark "addresses" are names, not dialable endpoints; a stub
	// pinger lets Bootstrap measure them without real landmark agents.
	c, err := New(Config{
		Self:    "client-pool",
		Server:  srvAddr,
		Dialer:  dialer,
		Pinger:  testutil.StubPinger{RTT: 5 * time.Millisecond},
		Samples: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}

	const queries = 50
	for i := 0; i < queries; i++ {
		if _, err := c.EstimateBatch(ctx, []string{"client-pool"}); err != nil {
			t.Fatal(err)
		}
	}
	// Bootstrap (GetModel + RegisterHost) plus 50 batch queries used to
	// cost ~52 dials; pooled they share a handful of connections. The
	// report calls above used transport.Call directly, so allow those
	// two dials plus the pool's.
	if got := ln.Accepts(); got > int64(len(lmAddrs))+4 {
		t.Fatalf("server accepted %d connections for %d exchanges; pooling should bound this near %d",
			got, queries+2, len(lmAddrs)+2)
	}
}
