package knnindex

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkSearch times one 16-nearest search over clustered points of
// dimension 8, the shape the service's directory has, at refit-churn's
// 8,192 hosts and bulk-pipelined's 100,000. Queries cycle through 1,024
// indexed vectors. scored/op is how many points a search dots against
// the query: the pruning's work, which a faster kernel must not change.
func BenchmarkSearch(b *testing.B) {
	const dim, k = 8, 16
	for _, n := range []int{8192, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			pts := clusteredPoints(rng, n, dim)
			ix := Build(pts, dim)
			queries := make([][]float64, 1024)
			for i := range queries {
				queries[i] = pts[rng.Intn(n)].Vec
			}
			var st SearchStats
			opts := SearchOptions{Stats: &st}
			i := 0
			for b.Loop() {
				ix.Search(queries[i%len(queries)], k, opts)
				i++
			}
			b.ReportMetric(float64(st.Scored)/float64(i), "scored/op")
		})
	}
}
