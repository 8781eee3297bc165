package main

import (
	"fmt"
	"sort"
	"time"

	"github.com/ides-go/ides/internal/stats"
)

// sample is one timed operation: when it completed, as an offset into
// the timed window, and how long it took. Eight bytes each, so a 30 s
// window of point queries (~1.5M samples) stays around 12 MB.
type sample struct {
	atUs  uint32 // completion time, µs since the window opened
	latNs uint32 // latency in ns, saturating at ~4.29 s
}

func newSample(atNs, latNs int64) sample {
	if latNs > int64(^uint32(0)) {
		latNs = int64(^uint32(0))
	}
	return sample{atUs: uint32(atNs / 1000), latNs: uint32(latNs)}
}

// minTail is how many samples must lie beyond a reported percentile for
// it to be trusted (choosing-metrics: "the highest percentile that has at
// least ten samples beyond it").
const minTail = 10

// tailPercentiles are the candidates for "the highest percentile the
// sample supports", descending.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// highestPercentile returns the largest candidate percentile that keeps
// at least minTail samples beyond it among n samples (50 if none does).
func highestPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100+1e-9 >= minTail { // epsilon: 100-99.9 is not exact
			return p
		}
	}
	return 50
}

// percentileNs returns the p-th percentile (nearest rank) of sorted.
func percentileNs(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*p/100+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

func sortedLatencies(s []sample) []uint32 {
	out := make([]uint32, len(s))
	for i, v := range s {
		out[i] = v.latNs
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// slicedP99 is how a p99 is taken here: the window is cut into 1 s
// slices, each slice's p99 is taken, and the median of those is
// reported. One noisy-neighbour burst on a shared box lands in one or
// two slices and cannot move the median, where it would own the top
// percent of a whole-window p99. Slices that cannot support a p99
// (fewer than minTail samples beyond it) are dropped; ok is false when
// no slice qualifies, and the caller falls back to the whole window.
func slicedP99(s []sample, sliceUs uint32) (ns float64, slices int, ok bool) {
	if len(s) == 0 {
		return 0, 0, false
	}
	buckets := make(map[uint32][]uint32)
	for _, v := range s {
		b := v.atUs / sliceUs
		buckets[b] = append(buckets[b], v.latNs)
	}
	var p99s []float64
	for _, lat := range buckets {
		if float64(len(lat))*0.01 < minTail {
			continue
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		p99s = append(p99s, percentileNs(lat, 99))
	}
	if len(p99s) == 0 {
		return 0, 0, false
	}
	return stats.Median(p99s), len(p99s), true
}

// latencySummary is what every workload reports about its timed ops.
type latencySummary struct {
	n        int
	p50Us    float64
	p99Us    float64
	p99Label string // how p99Us was obtained, printed beside it
}

func summarize(s []sample) latencySummary {
	sorted := sortedLatencies(s)
	out := latencySummary{n: len(s), p50Us: percentileNs(sorted, 50) / 1e3}
	if ns, slices, ok := slicedP99(s, 1_000_000); ok {
		out.p99Us = ns / 1e3
		out.p99Label = fmt.Sprintf("median of %d 1-s slice p99s", slices)
		return out
	}
	// Too few ops per second for per-slice p99s: report the highest
	// percentile the whole window supports, and say which.
	p := highestPercentile(len(s))
	out.p99Us = percentileNs(sorted, p) / 1e3
	out.p99Label = fmt.Sprintf("whole-window p%g", p)
	return out
}

// sliceRates returns the completed ops per second of each full 1-s
// slice of the window, in time order.
func sliceRates(s []sample, window time.Duration) []float64 {
	n := int(window / time.Second)
	rates := make([]float64, n)
	for _, v := range s {
		if b := int(v.atUs / 1_000_000); b < n {
			rates[b]++
		}
	}
	return rates
}
