// Benchmarks regenerating every table and figure of the paper, plus the
// ablation studies (`idesbench -exp ablations`). Each benchmark runs the
// corresponding experiment end to end per iteration and reports the
// headline quality metric alongside timing, so `go test -bench . -benchmem`
// doubles as the reproduction harness. Set IDES_BENCH_FULL=1 to run the
// paper-sized datasets (P2PSim at 1143 hosts, full dimension sweeps)
// instead of the quick configurations.
//
// README.md, "Reproducing the paper", lists the equivalent idesbench runs.
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
	"github.com/ides-go/ides/internal/stats"
	"github.com/ides-go/ides/internal/wire"
)

const benchSeed = 42

func benchScale() experiments.Scale {
	if os.Getenv("IDES_BENCH_FULL") != "" {
		return experiments.Full
	}
	return experiments.Quick
}

// reportMedians attaches each series' median error to the benchmark
// output as a custom metric.
func reportMedians(b *testing.B, series []experiments.CDFSeries) {
	b.Helper()
	for _, s := range series {
		b.ReportMetric(stats.Median(s.Errors), "median_err_"+sanitize(s.Label))
	}
}

func sanitize(label string) string {
	out := make([]rune, 0, len(label))
	for _, r := range label {
		switch r {
		case '/', ' ':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
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

// ---- Figure 2: SVD reconstruction CDFs over the five datasets ----

func BenchmarkFig2_SVDReconstruction(b *testing.B) {
	var last []experiments.CDFSeries
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig2(benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last = series
	}
	reportMedians(b, last)
}

// ---- Figure 3: median error vs dimension, per dataset ----

func benchFig3(b *testing.B, ds string) {
	var last []experiments.Fig3Point
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig3(ds, benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last = pts
	}
	for _, p := range last {
		if p.Dim == 10 {
			b.ReportMetric(p.SVD, "median_err_svd_d10")
			b.ReportMetric(p.NMF, "median_err_nmf_d10")
			b.ReportMetric(p.Lipschitz, "median_err_lipschitz_d10")
		}
	}
}

func BenchmarkFig3a_NLANR_DimensionSweep(b *testing.B)  { benchFig3(b, "NLANR") }
func BenchmarkFig3b_P2PSim_DimensionSweep(b *testing.B) { benchFig3(b, "P2PSim") }

// ---- Table 1: model construction time per system and dataset ----
//
// The table's subject *is* wall time, so each system×dataset cell gets its
// own benchmark and testing.B reports the time directly.

func benchTable1Cell(b *testing.B, ds, system string) {
	runners, err := experiments.PredictionRunners(ds, benchScale(), benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range runners {
		if r.Name != system {
			continue
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := r.Run(); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	b.Fatalf("unknown system %q", system)
}

func BenchmarkTable1_GNP_IDES_SVD(b *testing.B)    { benchTable1Cell(b, "GNP", "IDES-SVD") }
func BenchmarkTable1_GNP_IDES_NMF(b *testing.B)    { benchTable1Cell(b, "GNP", "IDES-NMF") }
func BenchmarkTable1_GNP_ICS(b *testing.B)         { benchTable1Cell(b, "GNP", "ICS") }
func BenchmarkTable1_GNP_GNP(b *testing.B)         { benchTable1Cell(b, "GNP", "GNP") }
func BenchmarkTable1_NLANR_IDES_SVD(b *testing.B)  { benchTable1Cell(b, "NLANR", "IDES-SVD") }
func BenchmarkTable1_NLANR_IDES_NMF(b *testing.B)  { benchTable1Cell(b, "NLANR", "IDES-NMF") }
func BenchmarkTable1_NLANR_ICS(b *testing.B)       { benchTable1Cell(b, "NLANR", "ICS") }
func BenchmarkTable1_NLANR_GNP(b *testing.B)       { benchTable1Cell(b, "NLANR", "GNP") }
func BenchmarkTable1_P2PSim_IDES_SVD(b *testing.B) { benchTable1Cell(b, "P2PSim", "IDES-SVD") }
func BenchmarkTable1_P2PSim_IDES_NMF(b *testing.B) { benchTable1Cell(b, "P2PSim", "IDES-NMF") }
func BenchmarkTable1_P2PSim_ICS(b *testing.B)      { benchTable1Cell(b, "P2PSim", "ICS") }
func BenchmarkTable1_P2PSim_GNP(b *testing.B)      { benchTable1Cell(b, "P2PSim", "GNP") }

// ---- Figure 6: prediction error CDFs, four systems, three datasets ----

func benchFig6(b *testing.B, ds string) {
	var last []experiments.CDFSeries
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig6(ds, benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last = series
	}
	reportMedians(b, last)
}

func BenchmarkFig6a_GNP_Prediction(b *testing.B)    { benchFig6(b, "GNP") }
func BenchmarkFig6b_NLANR_Prediction(b *testing.B)  { benchFig6(b, "NLANR") }
func BenchmarkFig6c_P2PSim_Prediction(b *testing.B) { benchFig6(b, "P2PSim") }

// ---- Figure 7: robustness to unobserved landmarks ----

func benchFig7(b *testing.B, ds string) {
	var last []experiments.Fig7Series
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig7(ds, benchScale(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last = series
	}
	for _, s := range last {
		for i, f := range s.Fractions {
			if f == 0 || f == 0.4 {
				b.ReportMetric(s.Medians[i], metricName(s.NumLandmarks, f))
			}
		}
	}
}

func metricName(lm int, frac float64) string {
	name := "median_err_lm"
	if lm == 20 {
		name += "20"
	} else {
		name += "50"
	}
	if frac == 0 {
		return name + "_f0"
	}
	return name + "_f40"
}

func BenchmarkFig7a_NLANR_LandmarkFailure(b *testing.B)  { benchFig7(b, "NLANR") }
func BenchmarkFig7b_P2PSim_LandmarkFailure(b *testing.B) { benchFig7(b, "P2PSim") }

// ---- Ablations ----

func BenchmarkAblation_SVDAlgorithms(b *testing.B) {
	var last []experiments.SVDAlgoResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationSVDAlgorithms([]int{60, 120, 240}, 10, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, r := range last {
		b.ReportMetric(r.ApproxError, "spectral_dev_n"+itoa(r.N))
	}
}

func BenchmarkAblation_NMFIterations(b *testing.B) {
	var last []experiments.NMFItersResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationNMFIterations(benchSeed, []int{25, 50, 100, 200, 400})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, r := range last {
		b.ReportMetric(r.Median, "median_err_iters"+itoa(r.Iters))
	}
}

func BenchmarkAblation_HostSolveNNLS(b *testing.B) {
	var last *experiments.NNLSResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationHostSolveNNLS(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.MedianUnconstrained, "median_err_unconstrained")
	b.ReportMetric(last.MedianNNLS, "median_err_nnls")
	b.ReportMetric(float64(last.NegativePredictions), "negative_predictions")
}

func BenchmarkAblation_KNodes(b *testing.B) {
	var last []experiments.KNodesResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationKNodes(benchSeed, []int{8, 12, 20, 30})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, r := range last {
		b.ReportMetric(r.Median, "median_err_k"+itoa(r.K))
	}
}

func BenchmarkAblation_LandmarkSelection(b *testing.B) {
	var last []experiments.LandmarkSelResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationLandmarkSelection(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, r := range last {
		b.ReportMetric(r.Median, "median_err_"+r.Policy)
	}
}

func BenchmarkAblation_HostChaining(b *testing.B) {
	var last []experiments.ChainResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationHostChaining(benchSeed, 3)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, r := range last {
		b.ReportMetric(r.Median, "median_err_depth"+itoa(r.Depth))
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func BenchmarkAblation_MissingData(b *testing.B) {
	var last []experiments.MissingDataResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationMissingData(benchSeed, []float64{0, 0.1, 0.2, 0.3, 0.5})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, r := range last {
		b.ReportMetric(r.MedianHidden, "median_err_hidden_f"+itoa(int(100*r.MissingFrac)))
	}
}

func BenchmarkExt_VivaldiComparison(b *testing.B) {
	var last []experiments.VivaldiResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.ExtVivaldi(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, r := range last {
		b.ReportMetric(r.Median, "median_err_"+sanitize(r.System))
	}
}
