// Allocation discipline for the serving hot path. The tentpole claim —
// a steady-state point query performs zero heap allocations end to end,
// client and server included — is enforced here with
// testing.AllocsPerRun, and the BenchmarkAllocs suite reports allocs/op
// for each layer (wire codec, transport roundtrip, query engine) so a
// regression shows up in -benchmem output before it shows up in GC
// pause graphs. The strict gate skips under -race, where allocation
// accounting and sync.Pool behavior both change.
package ides_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/query"
	"github.com/ides-go/ides/internal/server"
	"github.com/ides-go/ides/internal/testutil"
	"github.com/ides-go/ides/internal/transport"
	"github.com/ides-go/ides/internal/wire"
)

// startAllocServer boots a loopback server with no telemetry (the
// default production configuration of the hot path) and registers
// numHosts synthetic epoch-0 vectors over a pooled transport.
func startAllocServer(tb testing.TB, numHosts, dim int) (addr string, addrs []string, pool *transport.Pool) {
	tb.Helper()
	srv, err := server.New(server.Config{Landmarks: []string{"lm-0", "lm-1"}, Dim: dim})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Close)
	ln := testutil.Loopback(tb)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ctx, ln) }() //nolint:errcheck
	tb.Cleanup(func() { cancel(); <-done })
	addr = ln.Addr().String()

	pool, err = transport.NewPool(transport.PoolConfig{Dialer: &net.Dialer{Timeout: 5 * time.Second}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { pool.Close() })

	rng := rand.New(rand.NewSource(1))
	addrs = make([]string, numHosts)
	var buf []byte
	for i := range addrs {
		addrs[i] = fmt.Sprintf("host-%05d", i)
		out := make([]float64, dim)
		in := make([]float64, dim)
		for d := 0; d < dim; d++ {
			out[d] = rng.Float64() * 10
			in[d] = rng.Float64() * 10
		}
		reg := &wire.RegisterHost{Addr: addrs[i], Out: out, In: in}
		buf = reg.Encode(buf[:0])
		typ, _, err := pool.Call(ctx, addr, wire.TypeRegisterHost, buf)
		if err != nil || typ != wire.TypeAck {
			tb.Fatalf("register %s: type %v err %v", addrs[i], typ, err)
		}
	}
	return addr, addrs, pool
}

// pointQueryLoop returns a closure performing one pooled point query
// per call, threading encode and reply scratch across calls the way a
// steady production client does.
func pointQueryLoop(tb testing.TB, pool *transport.Pool, addr string, addrs []string) func() {
	tb.Helper()
	// The context must carry a deadline: a deadline-free context makes
	// the pool wrap it with WithTimeout per call, which allocates.
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	tb.Cleanup(cancel)
	var reqBuf, scratch []byte
	i := 0
	return func() {
		q := wire.QueryDist{From: addrs[i%len(addrs)], To: addrs[(i+7)%len(addrs)]}
		i++
		reqBuf = q.Encode(reqBuf[:0])
		typ, reply, s, err := pool.CallInto(ctx, addr, wire.TypeQueryDist, reqBuf, scratch)
		scratch = s
		if err != nil || typ != wire.TypeDistance {
			tb.Fatalf("QueryDist: type %v err %v", typ, err)
		}
		d, err := wire.ParseDistance(reply)
		if err != nil || !d.Found {
			tb.Fatalf("distance %+v err %v", d, err)
		}
	}
}

// TestPointQueryZeroAlloc is the CI allocation gate: after warmup, a
// pooled point query — encode, framed send, server read, directory
// lookup, dot product, framed reply, parse — costs zero heap
// allocations per op across the whole process, server goroutines
// included (AllocsPerRun reads the global allocation counter).
func TestPointQueryZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation accounting changes under -race")
	}
	addr, addrs, pool := startAllocServer(t, 512, 8)
	op := pointQueryLoop(t, pool, addr, addrs)
	// Warm up: first calls dial the connection and grow every scratch
	// buffer (client call buffer, server read/response/frame buffers)
	// to its steady-state high-water mark.
	for i := 0; i < 64; i++ {
		op()
	}
	if allocs := testing.AllocsPerRun(256, op); allocs != 0 {
		t.Fatalf("steady-state point query allocates %.1f times per op, want 0", allocs)
	}
}

// indexedEngine builds an in-process directory big enough for the
// spatial index, with the index installed.
func indexedEngine(tb testing.TB, n, dim int) (*query.Engine, []string) {
	tb.Helper()
	rng := rand.New(rand.NewSource(2))
	dir := query.New(query.Config{})
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("host-%05d", i)
		out := make([]float64, dim)
		in := make([]float64, dim)
		for d := 0; d < dim; d++ {
			out[d] = rng.Float64() * 10
			in[d] = rng.Float64() * 10
		}
		dir.Put(addrs[i], core.Vectors{Out: out, In: in})
	}
	eng := query.NewEngine(dir, nil)
	if n >= 4096 && !eng.BuildKNNIndex() {
		tb.Fatal("index build failed")
	}
	return eng, addrs
}

// BenchmarkAllocs measures allocations per op layer by layer; run with
// -benchmem. The wire, transport and engine point-query entries must
// stay at 0 allocs/op — TestPointQueryZeroAlloc enforces the end-to-end
// composition.
func BenchmarkAllocs(b *testing.B) {
	b.Run("wire-encode-decode", func(b *testing.B) {
		var buf []byte
		q := wire.QueryDist{From: "host-00001", To: "host-00002"}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = q.Encode(buf[:0])
			from, to, err := wire.QueryDistView(buf)
			if err != nil || len(from) == 0 || len(to) == 0 {
				b.Fatal(err)
			}
		}
	})
	b.Run("wire-frame-roundtrip", func(b *testing.B) {
		payload := (&wire.QueryDist{From: "host-00001", To: "host-00002"}).Encode(nil)
		var frame, scratch []byte
		var rd bytes.Reader
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frame = wire.AppendFrame(frame[:0], wire.TypeQueryDist, payload)
			rd.Reset(frame)
			t, p, s, err := wire.ReadFrameInto(&rd, scratch)
			scratch = s
			if err != nil || t != wire.TypeQueryDist || len(p) != len(payload) {
				b.Fatal(err)
			}
		}
	})
	b.Run("transport-roundtrip", func(b *testing.B) {
		// Against the real server, not the testutil echo stub: allocation
		// counts are process-global, and only the production handler loop
		// is allocation-free on the answering side.
		addr, _, _ := startAllocServer(b, 2, 8)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		defer cancel()
		ping := wire.Ping{Token: 42}
		var reqBuf, scratch []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reqBuf = ping.Encode(reqBuf[:0])
			t, p, s, err := transport.RoundtripInto(ctx, conn, wire.TypePing, reqBuf, scratch)
			scratch = s
			if err != nil || t != wire.TypePong {
				b.Fatalf("type %v err %v", t, err)
			}
			if tok, err := wire.PingToken(p); err != nil || tok != 42 {
				b.Fatalf("token %d err %v", tok, err)
			}
		}
	})
	b.Run("engine-point", func(b *testing.B) {
		eng, addrs := indexedEngine(b, 1024, 8)
		from := []byte(addrs[3])
		to := []byte(addrs[700])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := eng.EstimatePair(from, to); !ok {
				b.Fatal("pair not found")
			}
		}
	})
	b.Run("engine-batch", func(b *testing.B) {
		eng, addrs := indexedEngine(b, 1024, 8)
		src, _ := eng.Lookup(addrs[0])
		targets := addrs[1:257]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ests := eng.EstimateBatch(src, targets); len(ests) != len(targets) {
				b.Fatal("short batch")
			}
		}
	})
	b.Run("engine-knn", func(b *testing.B) {
		eng, addrs := indexedEngine(b, 8192, 8)
		src, _ := eng.Lookup(addrs[0])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if nb := eng.KNearest(src, 16, query.KNNOptions{Exclude: addrs[0]}); len(nb) != 16 {
				b.Fatal("short knn")
			}
		}
	})
	// The two bulk requests end to end over the pooled transport, replies
	// left undecoded so the count is the transport's and the server's:
	// internal/server's TestBulkQueryAllocs gates the handler share (0
	// for the batch, a handful for the k-NN).
	bulk := func(typ, reply wire.MsgType, encode func(addrs []string, dst []byte) []byte) func(*testing.B) {
		return func(b *testing.B) {
			addr, addrs, pool := startAllocServer(b, 8192, 8)
			ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
			defer cancel()
			req := encode(addrs, nil)
			var scratch []byte
			op := func() {
				got, _, s, err := pool.CallInto(ctx, addr, typ, req, scratch)
				scratch = s
				if err != nil || got != reply {
					b.Fatalf("type %v err %v", got, err)
				}
			}
			for i := 0; i < 64; i++ {
				op() // the first k-NN finds no index and starts its build
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		}
	}
	b.Run("query-batch", bulk(wire.TypeQueryBatch, wire.TypeDistances, func(addrs []string, dst []byte) []byte {
		return (&wire.QueryBatch{From: addrs[0], Targets: addrs[1:257]}).Encode(dst)
	}))
	b.Run("query-knn", bulk(wire.TypeQueryKNN, wire.TypeNeighbors, func(addrs []string, dst []byte) []byte {
		return (&wire.QueryKNN{From: addrs[0], K: 16}).Encode(dst)
	}))
	b.Run("pool-point-query", func(b *testing.B) {
		addr, addrs, pool := startAllocServer(b, 512, 8)
		op := pointQueryLoop(b, pool, addr, addrs)
		for i := 0; i < 16; i++ {
			op()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
	})
}
