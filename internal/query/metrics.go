package query

import (
	"github.com/ides-go/ides/internal/telemetry"
)

// Metrics holds the query layer's telemetry instruments. Build one with
// NewMetrics and hand it to Config.Metrics; a nil *Metrics disables
// instrumentation entirely (the hot paths skip even the clock reads).
type Metrics struct {
	// BatchSize observes how many targets each EstimateBatch call asked
	// for; MatrixSize the side length of each EstimateMatrix call.
	BatchSize  *telemetry.Histogram
	MatrixSize *telemetry.Histogram
	// BatchSeconds and KNNSeconds observe per-call latency.
	BatchSeconds *telemetry.Histogram
	KNNSeconds   *telemetry.Histogram
	// KNNIndexBuildSeconds observes each spatial-index build;
	// KNNIndexNodes and KNNIndexPoints gauge the live index's shape.
	KNNIndexBuildSeconds *telemetry.Histogram
	KNNIndexNodes        *telemetry.Gauge
	KNNIndexPoints       *telemetry.Gauge
	// KNNIndexHits counts KNearest calls answered from the index;
	// KNNIndexFallbacks calls that fell back to the exact scan while a
	// usable index was expected (missing, stale, or under-filled);
	// KNNIndexRechecks indexed searches run a second time because one of
	// the first pass's results was no longer live; KNNIndexBuilds
	// completed builds.
	KNNIndexHits      *telemetry.Counter
	KNNIndexFallbacks *telemetry.Counter
	KNNIndexRechecks  *telemetry.Counter
	KNNIndexBuilds    *telemetry.Counter
}

// NewMetrics registers the ides_query_* instrument families on reg.
// A nil registry yields a usable Metrics whose instruments are no-ops.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		BatchSize: reg.Histogram("ides_query_batch_size",
			"Targets per EstimateBatch call.", telemetry.SizeBuckets),
		MatrixSize: reg.Histogram("ides_query_matrix_size",
			"Addresses per EstimateMatrix call.", telemetry.SizeBuckets),
		BatchSeconds: reg.Histogram("ides_query_batch_seconds",
			"EstimateBatch latency.", nil),
		KNNSeconds: reg.Histogram("ides_query_knn_seconds",
			"KNearest latency.", nil),
		KNNIndexBuildSeconds: reg.Histogram("ides_query_knn_index_build_seconds",
			"Spatial k-NN index build latency.", nil),
		KNNIndexNodes: reg.Gauge("ides_query_knn_index_nodes",
			"Tree nodes in the live k-NN index."),
		KNNIndexPoints: reg.Gauge("ides_query_knn_index_points",
			"Hosts covered by the live k-NN index."),
		KNNIndexHits: reg.Counter("ides_query_knn_index_hits_total",
			"KNearest calls answered from the spatial index."),
		KNNIndexFallbacks: reg.Counter("ides_query_knn_index_fallbacks_total",
			"KNearest calls that expected an index but scanned exactly."),
		KNNIndexRechecks: reg.Counter("ides_query_knn_index_rechecks_total",
			"Indexed KNearest searches repeated with the liveness check inside because a first-pass result was dead."),
		KNNIndexBuilds: reg.Counter("ides_query_knn_index_builds_total",
			"Completed spatial index builds."),
	}
}
