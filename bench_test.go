// Benchmarks of the paper's evaluation and of the query engine's wire
// path. BenchmarkExperiments runs every experiment idesbench prints
// (experiments.All, README.md "Reproducing the paper"), one sub-benchmark
// per -exp ID; set IDES_BENCH_FULL=1 to run the paper-sized datasets
// (P2PSim at 1143 hosts, full dimension sweeps) instead of the quick
// configurations.
package ides_test

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"testing"

	"github.com/ides-go/ides/internal/experiments"
	"github.com/ides-go/ides/internal/server"
	"github.com/ides-go/ides/internal/wire"
)

const benchSeed = 42

// BenchmarkExperiments times each entry of experiments.All end to end.
// What each one computes is its tables: `idesbench -exp <id>` prints them,
// and Table 1's cells are the per-system model build times.
func BenchmarkExperiments(b *testing.B) {
	scale := experiments.Quick
	if os.Getenv("IDES_BENCH_FULL") != "" {
		scale = experiments.Full
	}
	for _, e := range experiments.All {
		b.Run(e.ID, func(b *testing.B) {
			for b.Loop() {
				if _, err := e.Run(scale, benchSeed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Query engine: batch vs point estimation over the wire ----
//
// The serving-path hot spot the internal/query subsystem exists for: a
// client that needs distances to many candidates. The point path pays one
// QueryDist round trip per candidate; the batch path answers the whole
// candidate list in one QueryBatch round trip backed by a matrix-vector
// product. Both benches run against a real TCP loopback server with a
// 10k-host directory and report estimates/sec, so the speedup is
// end-to-end (framing + syscalls + engine), not just the inner loop.

const (
	queryBenchHosts   = 10_000
	queryBenchDim     = 10
	queryBenchTargets = 1000
)

// startQueryBench boots a server on loopback, registers queryBenchHosts
// random host vectors through the wire protocol, and returns an open
// client connection plus the source and target addresses.
func startQueryBench(b *testing.B) (net.Conn, string, []string) {
	b.Helper()
	srv, err := server.New(server.Config{
		Landmarks: []string{"L1", "L2"},
		Dim:       queryBenchDim,
		Seed:      benchSeed,
	})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ctx, ln) }() //nolint:errcheck
	b.Cleanup(func() { cancel(); <-done })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { conn.Close() })

	rng := rand.New(rand.NewSource(benchSeed))
	addrs := make([]string, queryBenchHosts)
	var buf []byte
	for i := range addrs {
		addrs[i] = fmt.Sprintf("host-%06d", i)
		out := make([]float64, queryBenchDim)
		in := make([]float64, queryBenchDim)
		for d := range out {
			out[d] = rng.Float64() * 10
			in[d] = rng.Float64() * 10
		}
		reg := &wire.RegisterHost{Addr: addrs[i], Out: out, In: in}
		buf = reg.Encode(buf[:0])
		if err := wire.WriteFrame(conn, wire.TypeRegisterHost, buf); err != nil {
			b.Fatal(err)
		}
		typ, _, err := wire.ReadFrame(conn)
		if err != nil || typ != wire.TypeAck {
			b.Fatalf("register %d: %v %v", i, typ, err)
		}
	}
	targets := make([]string, queryBenchTargets)
	for i := range targets {
		targets[i] = addrs[rng.Intn(len(addrs))]
	}
	return conn, addrs[0], targets
}

// BenchmarkQuery_PointLoop estimates source→target for every target with
// one QueryDist round trip each — the pre-batch protocol's only option.
func BenchmarkQuery_PointLoop(b *testing.B) {
	conn, src, targets := startQueryBench(b)
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, target := range targets {
			buf = (&wire.QueryDist{From: src, To: target}).Encode(buf[:0])
			if err := wire.WriteFrame(conn, wire.TypeQueryDist, buf); err != nil {
				b.Fatal(err)
			}
			typ, payload, err := wire.ReadFrame(conn)
			if err != nil || typ != wire.TypeDistance {
				b.Fatalf("%v %v", typ, err)
			}
			if _, err := wire.ParseDistance(payload); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(targets))/b.Elapsed().Seconds(), "estimates/s")
}

// BenchmarkQuery_Batch answers the same workload with one QueryBatch
// round trip per iteration. The acceptance bar for the batch path is
// >= 10x BenchmarkQuery_PointLoop's estimates/s.
func BenchmarkQuery_Batch(b *testing.B) {
	conn, src, targets := startQueryBench(b)
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = (&wire.QueryBatch{From: src, Targets: targets}).Encode(buf[:0])
		if err := wire.WriteFrame(conn, wire.TypeQueryBatch, buf); err != nil {
			b.Fatal(err)
		}
		typ, payload, err := wire.ReadFrame(conn)
		if err != nil || typ != wire.TypeDistances {
			b.Fatalf("%v %v", typ, err)
		}
		resp, err := wire.DecodeDistances(payload)
		if err != nil {
			b.Fatal(err)
		}
		if len(resp.Results) != len(targets) {
			b.Fatalf("%d results", len(resp.Results))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(targets))/b.Elapsed().Seconds(), "estimates/s")
}

// BenchmarkQuery_KNN ranks the nearest 16 of the whole 10k-host directory
// per round trip.
func BenchmarkQuery_KNN(b *testing.B) {
	conn, src, _ := startQueryBench(b)
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = (&wire.QueryKNN{From: src, K: 16}).Encode(buf[:0])
		if err := wire.WriteFrame(conn, wire.TypeQueryKNN, buf); err != nil {
			b.Fatal(err)
		}
		typ, payload, err := wire.ReadFrame(conn)
		if err != nil || typ != wire.TypeNeighbors {
			b.Fatalf("%v %v", typ, err)
		}
		if _, err := wire.DecodeNeighbors(payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}
