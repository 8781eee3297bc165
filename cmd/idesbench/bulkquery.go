package main

import (
	"fmt"
	"math/rand"
	"os"
	"text/tabwriter"
	"time"

	"github.com/ides-go/ides/internal/core"
	"github.com/ides-go/ides/internal/experiments"
	"github.com/ides-go/ides/internal/query"
	"github.com/ides-go/ides/internal/stats"
)

// runBulkQuery is the query-engine workload: it loads a sharded directory
// with synthetic host vectors and measures point lookups, one-round-trip
// batch estimation, and k-NN selection — ops/sec plus p50/p99 latency.
// This is the serving-path complement to the model-quality experiments:
// it answers "how fast can a loaded information server estimate", not
// "how accurate is the model".
func runBulkQuery(scale experiments.Scale, seed int64) error {
	numHosts := 10_000
	if scale == experiments.Full {
		numHosts = 100_000
	}
	const (
		dim        = 10
		batchSize  = 1000
		knnK       = 16
		rounds     = 50
		pointPairs = 20_000
	)
	rng := rand.New(rand.NewSource(seed))
	addrs := make([]string, numHosts)
	vecs := make([]core.Vectors, numHosts)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("host-%06d", i)
		out := make([]float64, dim)
		in := make([]float64, dim)
		for d := 0; d < dim; d++ {
			out[d] = rng.Float64() * 10
			in[d] = rng.Float64() * 10
		}
		vecs[i] = core.Vectors{Out: out, In: in}
	}

	fmt.Printf("\n== Bulk query workload: %d hosts, d=%d ==\n", numHosts, dim)
	dir := query.New(query.Config{})
	start := time.Now()
	for i, addr := range addrs {
		dir.Put(addr, vecs[i])
	}
	fill := time.Since(start)
	eng := query.NewEngine(dir, nil)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "operation\tops/sec\tp50\tp99")
	fmt.Fprintf(w, "register\t%.0f\t\t\n", float64(numHosts)/fill.Seconds())

	// Point queries: one Lookup + dot product per pair, the per-candidate
	// cost the old QueryDist path paid (minus framing).
	src := vecs[rng.Intn(numHosts)]
	start = time.Now()
	sink := 0.0
	for i := 0; i < pointPairs; i++ {
		v, ok := dir.Get(addrs[rng.Intn(numHosts)])
		if ok {
			sink += core.Estimate(src, v)
		}
	}
	pointElapsed := time.Since(start)
	fmt.Fprintf(w, "point estimate\t%.0f\t\t\n", float64(pointPairs)/pointElapsed.Seconds())

	// Batch estimation: one source → batchSize targets per call.
	targets := make([]string, batchSize)
	for i := range targets {
		targets[i] = addrs[rng.Intn(numHosts)]
	}
	lat := make([]time.Duration, rounds)
	start = time.Now()
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		res := eng.EstimateBatch(src, targets)
		lat[r] = time.Since(t0)
		sink += res[0].Millis
	}
	batchElapsed := time.Since(start)
	sum := stats.SummarizeDurations(lat, batchElapsed)
	fmt.Fprintf(w, "batch estimate (%d targets/call)\t%.0f\t%.0fµs\t%.0fµs\n",
		batchSize, float64(rounds*batchSize)/batchElapsed.Seconds(), sum.P50Us, sum.P99Us)

	// k-NN over the whole directory.
	start = time.Now()
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		nbs := eng.KNearest(src, knnK, query.KNNOptions{})
		lat[r] = time.Since(t0)
		sink += nbs[0].Millis
	}
	elapsed := time.Since(start)
	sum = stats.SummarizeDurations(lat, elapsed)
	fmt.Fprintf(w, "k-NN exact (k=16)\t%.1f\t%.0fµs\t%.0fµs\n", sum.OpsPerSec, sum.P50Us, sum.P99Us)
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("(batch answers %d estimates per wire round trip; the point path pays one round trip each)\n", batchSize)
	_ = sink
	return nil
}
